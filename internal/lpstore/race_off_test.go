//go:build !race

package lpstore

// See race_on_test.go.
const raceEnabled = false
