//go:build race

package core

// raceEnabled reports that the race detector instruments this build; its
// runtime allocates on synchronization edges and sync.Pool drops items at
// random, so an allocation-count gate needs a looser budget under -race.
const raceEnabled = true
