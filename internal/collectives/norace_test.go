//go:build !race

package collectives

const raceEnabled = false
