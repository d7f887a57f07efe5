// Command cobra-experiments is `cobra experiments` (internal/cli/experiments.go) under its own name.
package main

import "cobra/internal/cli"

func main() { cli.Main("experiments") }
