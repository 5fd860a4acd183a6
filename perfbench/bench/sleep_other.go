//go:build !linux

package bench

import "time"

func sleepFor(d time.Duration) { time.Sleep(d) }
