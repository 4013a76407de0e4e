//go:build !linux

package main

import "time"

// waitUntil returns at t, or up to a millisecond after it.
func waitUntil(t time.Time) { time.Sleep(time.Until(t)) }
