// Command cobra-diff is `cobra diff` (internal/cli/diff.go) under its own name.
package main

import "cobra/internal/cli"

func main() { cli.Main("diff") }
