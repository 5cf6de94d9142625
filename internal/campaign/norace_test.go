//go:build !race

package campaign

const raceEnabled = false
