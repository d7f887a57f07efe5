//go:build race

package main

import "time"

// The race detector slows the simulator about tenfold.
func init() { quickLimit = 100 * time.Second }
