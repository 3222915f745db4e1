//go:build race

package lpstore

// sync.Pool drops items at random under the race detector, so pooled
// paths allocate there by design.
const raceEnabled = true
