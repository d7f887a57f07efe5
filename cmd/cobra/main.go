// Command cobra runs the COBRA tools as subcommands: `cobra <subcommand>
// [flags]`, with `cobra -h` listing them (see internal/cli).
package main

import "cobra/internal/cli"

func main() { cli.Main() }
