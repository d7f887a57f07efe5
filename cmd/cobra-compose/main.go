// Command cobra-compose is `cobra compose` (internal/cli/compose.go) under its own name.
package main

import "cobra/internal/cli"

func main() { cli.Main("compose") }
