// Command cobra-serve is `cobra serve` (internal/cli/serve.go) under its own name.
package main

import "cobra/internal/cli"

func main() { cli.Main("serve") }
