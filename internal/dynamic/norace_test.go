//go:build !race

package dynamic_test

const raceEnabled = false
