// Command cobra-sim is `cobra sim` (internal/cli/sim.go) under its own name.
package main

import "cobra/internal/cli"

func main() { cli.Main("sim") }
