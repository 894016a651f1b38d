//go:build race

package replay

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so exact allocation counts through the engine's
// state pool vary from run to run.
const raceEnabled = true
