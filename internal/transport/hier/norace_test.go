//go:build !race

package hier_test

const raceEnabled = false
