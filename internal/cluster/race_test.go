//go:build race

package cluster

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a share of what it is given on purpose.
const raceEnabled = true
