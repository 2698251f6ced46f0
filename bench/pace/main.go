// Command pace is the benchmark's host-speed probe. It allocates
// 500,000 32-byte lines, keeping the last 100,000 live, so the garbage
// collector marks a steady heap while new lines arrive, much as the
// simulator's cache fills do. The benchmark starts it the way it starts
// the CLIs under test, right before each timed run, and scales that
// run's wall time by it (see env.pace). It must not change: every
// commit's results are scaled by the same program.
package main

var ring [][]byte

func main() {
	ring = make([][]byte, 100_000)
	for i := 0; i < 500_000; i++ {
		b := make([]byte, 32)
		b[0] = byte(i)
		ring[i%len(ring)] = b
	}
}
