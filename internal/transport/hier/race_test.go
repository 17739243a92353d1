//go:build race

package hier_test

// raceEnabled reports that the race detector instruments this build; its
// runtime allocates on synchronization edges, so allocation-count gates
// are meaningless under -race.
const raceEnabled = true
