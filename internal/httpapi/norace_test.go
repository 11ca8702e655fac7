//go:build !race

package httpapi

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
