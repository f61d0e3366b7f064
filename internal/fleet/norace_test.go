//go:build !race

package fleet

const raceEnabled = false
