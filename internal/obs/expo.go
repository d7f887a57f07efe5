package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Expo renders one text exposition, classic Prometheus 0.0.4 or
// OpenMetrics, and applies the OpenMetrics rules in one place: a counter
// family is declared without its `_total` suffix (the sample keeps it), and
// histogram buckets carry their trace-ID exemplars.
type Expo struct {
	b  strings.Builder
	om bool
}

// family writes a family's HELP/TYPE preamble.
func (x *Expo) family(name, typ, help string) {
	fmt.Fprintf(&x.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Gauge writes a one-sample gauge family.  sample is the family name,
// optionally followed by the sample's {label set}.
func (x *Expo) Gauge(sample, help string, v any) {
	name, _, _ := strings.Cut(sample, "{")
	x.family(name, "gauge", help)
	fmt.Fprintf(&x.b, "%s %v\n", sample, v)
}

// Counter writes a one-sample counter family.  name is the sample name,
// ending in _total; the OpenMetrics family drops that suffix.
func (x *Expo) Counter(name, help string, v any) {
	fam := name
	if x.om {
		fam = strings.TrimSuffix(name, "_total")
	}
	x.family(fam, "counter", help)
	fmt.Fprintf(&x.b, "%s %v\n", name, v)
}

// histogram writes one histogram family: one HELP/TYPE preamble, named after
// hs[0], then each of hs as one labeled series.
func (x *Expo) histogram(hs ...*Histogram) {
	x.family(hs[0].name, "histogram", hs[0].help)
	for _, h := range hs {
		counts := make([]uint64, len(h.buckets))
		for i := range h.buckets {
			counts[i] = h.buckets[i].Load()
		}
		var exs []exemplar
		if x.om {
			exs = h.exemplarSnapshot()
		}
		x.series(h.name, h.label, h.bounds, counts, h.Sum(), exs)
	}
}

// series writes one histogram series: the cumulative bucket lines over
// bounds and +Inf (counts holds one more entry than bounds), each with its
// exemplar when exs holds one, then _sum and _count.
func (x *Expo) series(name, label string, bounds []float64, counts []uint64, sum float64, exs []exemplar) {
	prefix, suffix := "", ""
	if label != "" {
		prefix, suffix = label+",", "{"+label+"}"
	}
	var cum uint64
	for i, n := range counts {
		cum += n
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		fmt.Fprintf(&x.b, "%s_bucket{%sle=%q} %d", name, prefix, le, cum)
		if exs != nil && exs[i].traceID != "" {
			fmt.Fprintf(&x.b, " # {trace_id=%q} %s %s", exs[i].traceID,
				strconv.FormatFloat(exs[i].value, 'g', -1, 64),
				strconv.FormatFloat(exs[i].ts, 'f', 6, 64))
		}
		x.b.WriteByte('\n')
	}
	fmt.Fprintf(&x.b, "%s_sum%s %s\n", name, suffix, strconv.FormatFloat(sum, 'g', -1, 64))
	fmt.Fprintf(&x.b, "%s_count%s %d\n", name, suffix, cum)
}

// exposition renders the whole scrape: m's families, then extra's when it is
// non-nil, then the Go runtime's; OpenMetrics ends with its # EOF line.
func (m *Metrics) exposition(om bool, extra func(*Expo)) string {
	x := &Expo{om: om}
	m.expo(x)
	if extra != nil {
		extra(x)
	}
	x.runtime()
	if om {
		x.b.WriteString("# EOF\n")
	}
	return x.b.String()
}

// Handler serves m's exposition, with extra's families (nil for none)
// after m's.  A scrape that Accepts application/openmetrics-text gets
// OpenMetrics, any other the classic Prometheus 0.0.4 text.
func (m *Metrics) Handler(extra func(*Expo)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		om := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
		ctype := "text/plain; version=0.0.4"
		if om {
			ctype = "application/openmetrics-text; version=1.0.0; charset=utf-8"
		}
		w.Header().Set("Content-Type", ctype)
		io.WriteString(w, m.exposition(om, extra)) //nolint:errcheck // the scraper went away
	}
}
