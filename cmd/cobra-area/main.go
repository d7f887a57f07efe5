// Command cobra-area is `cobra area` (internal/cli/area.go) under its own name.
package main

import "cobra/internal/cli"

func main() { cli.Main("area") }
