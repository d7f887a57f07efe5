package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"cobra/internal/compose"
	"cobra/internal/pred"
	"cobra/internal/program"
	"cobra/internal/runner"
	"cobra/internal/spec"
	"cobra/internal/trace"
	"cobra/internal/workloads"
)

var traceReplay = workload{
	name: "trace-replay",
	why: "gcc and mcf branch traces replayed through all three presets with no core, " +
		"so time goes to compose and components and a uarch-only change shows no gain",
	threads: 1,
	setup:   setupTraceReplay,
}

type capturedTrace struct {
	workload string
	data     []byte
	records  uint64
}

type presetGeom struct {
	design string
	fetch  pred.Config
	topo   *compose.Topology
	opt    compose.Options
}

type replayInst struct {
	insts  uint64 // instructions each trace covers
	traces []capturedTrace
	geoms  []presetGeom
}

func setupTraceReplay(cfg config, led *ledger) (instance, error) {
	in := &replayInst{insts: 500_000}
	if cfg.quick {
		in.insts = 50_000
	}
	for i, name := range []string{"gcc", "mcf"} {
		var data []byte
		var n uint64
		var prog *program.Program
		if err := led.timeMS("setup.workloads", func() (err error) {
			prog, err = workloads.Get(name)
			return err
		}); err != nil {
			return nil, err
		}
		err := led.timeMS("setup.trace_capture", func() error {
			var buf bytes.Buffer
			var err error
			n, err = trace.Capture(&buf, prog, runner.Derive(cfg.seed, uint64(i)), in.insts)
			data = buf.Bytes()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("capturing %s: %w", name, err)
		}
		in.traces = append(in.traces, capturedTrace{workload: name, data: data, records: n})
	}
	for _, name := range spec.PresetNames() {
		s, err := spec.Preset(name)
		if err != nil {
			return nil, err
		}
		s.Workload = "gcc"
		c, err := s.Canonical()
		if err != nil {
			return nil, err
		}
		opt, err := c.Pipeline.Options()
		if err != nil {
			return nil, err
		}
		hw, err := c.ResolveCore()
		if err != nil {
			return nil, err
		}
		topo, err := compose.ParseTopologyCached(c.Topology)
		if err != nil {
			return nil, err
		}
		in.geoms = append(in.geoms, presetGeom{design: name, fetch: hw.Fetch, topo: topo, opt: opt})
	}
	return in, nil
}

// kinds: each rep replays both traces through one preset.
func (in *replayInst) kinds() int { return len(in.geoms) }

func (in *replayInst) rep(kind int, led *ledger, tr *tracer) (repResult, error) {
	var r repResult
	var results []trace.SimResult
	g := in.geoms[kind]
	decodeMS := make([]float64, len(in.traces))
	if tr != nil {
		// The decode cost inside trace.Simulate, measured by a trace.Reader
		// pass on its own; outside the measured region.
		for i, t := range in.traces {
			sp := tr.span("trace", "decode "+t.workload)
			t0 := time.Now()
			if err := decodeAll(t.data); err != nil {
				return r, err
			}
			decodeMS[i] = msSince(t0)
			sp.End()
		}
	}
	t0 := time.Now()
	for i, t := range in.traces {
		t1 := time.Now()
		opt := g.opt
		if tr != nil {
			opt.Wrap = tr.wrap
		}
		p, err := compose.New(g.fetch, g.topo, opt)
		if err != nil {
			return r, err
		}
		led.addMS("compose.new", msSince(t1))
		rd, err := trace.NewReader(bytes.NewReader(t.data))
		if err != nil {
			return r, err
		}
		sp := tr.span("trace", "trace.Simulate "+g.design+" x "+t.workload)
		t2 := time.Now()
		res, err := trace.Simulate(p, rd)
		led.addMS("trace.simulate", msSince(t2))
		sp.End()
		if err != nil {
			return r, err
		}
		if res.CFIs != t.records {
			r.failed++
		}
		results = append(results, res)
		led.addMS("trace.decode", decodeMS[i])
		led.add("sim.kinst", float64(in.insts)/1e3)
		led.add("trace.krecords", float64(t.records)/1e3)
	}
	r.wallMS = msSince(t0)
	r.opsMS = []float64{r.wallMS}
	if tr != nil {
		led.addMS("compose.self", led.getMS("trace.simulate")-tr.settle(led)-led.getMS("trace.decode"))
	}
	r.counters = digestOf(results)
	return r, nil
}

// decodeAll reads every record of a trace and discards it.
func decodeAll(data []byte) error {
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := rd.Read(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

func (in *replayInst) close() {}
