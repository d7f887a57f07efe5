// Command cobra-diagram is `cobra diagram` (internal/cli/diagram.go) under its own name.
package main

import "cobra/internal/cli"

func main() { cli.Main("diagram") }
