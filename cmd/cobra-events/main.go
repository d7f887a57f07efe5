// Command cobra-events is `cobra events` (internal/cli/events.go) under its own name.
package main

import "cobra/internal/cli"

func main() { cli.Main("events") }
