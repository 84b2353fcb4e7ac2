//go:build !unix

package main

// maxRSSMB reports 0 where there is neither /proc nor getrusage.
func maxRSSMB() float64 { return 0 }
