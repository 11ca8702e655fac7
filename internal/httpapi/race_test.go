//go:build race

package httpapi

// raceEnabled reports a -race build, in which sync.Pool drops a share
// of the buffers put back, so pooled paths allocate more than they do
// in production.
const raceEnabled = true
