//go:build race

package rollout

func init() { raceEnabled = true }
