// Command cobra-trace is `cobra trace` (internal/cli/trace.go) under its own name.
package main

import "cobra/internal/cli"

func main() { cli.Main("trace") }
