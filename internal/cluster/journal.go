package cluster

import "acb/internal/service"

// OpenJournal opens a coordinator's journal: the one job journal every
// acbd role writes (service.OpenJournal), which also replays journals
// from before the roles shared it.
func OpenJournal(path string) (*service.Journal, []service.ReplayJob, error) {
	return service.OpenJournal(path)
}
