// Command cobra-sweep is `cobra sweep` (internal/cli/sweep.go) under its own name.
package main

import "cobra/internal/cli"

func main() { cli.Main("sweep") }
