//go:build race

package tcpnet

// The race detector makes sync.Pool drop Puts at random, so the buffer
// pool allocates and the allocation pins cannot hold.
func init() { raceEnabled = true }
