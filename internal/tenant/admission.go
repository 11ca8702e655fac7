package tenant

import (
	"errors"
	"net/http"
	"time"
)

// Admission errors and sentinels.
var (
	// ErrNotFound marks a request for a tenant that does not exist.
	ErrNotFound = errors.New("unknown tenant")
	// ErrExists marks a create of a name already taken.
	ErrExists = errors.New("tenant already exists")
	// ErrBadName marks an invalid tenant name.
	ErrBadName = errors.New("invalid tenant name")
	// ErrDefaultUndeletable guards the implicit default tenant.
	ErrDefaultUndeletable = errors.New("the default tenant cannot be deleted")
)

// capacityRetryAfter is the Retry-After hint on 503 shed responses:
// fleet caps clear on the timescale of in-flight work, not of token
// refill, so the hint is a fixed short backoff.
const capacityRetryAfter = time.Second

// Decision is one admission outcome. A rejected decision carries the
// HTTP status the API should answer with (429 over-quota, 503
// over-capacity) and a Retry-After hint.
type Decision struct {
	OK         bool
	Status     int
	RetryAfter time.Duration
	Reason     string
}

// Admit runs the tenant's request through its token bucket before any
// planning work happens. A rejected Decision says how to shed.
func (r *Registry) Admit(t *Tenant) Decision {
	if t.bucket != nil {
		if ok, wait := t.bucket.take(r.cfg.now()); !ok {
			obsRejQuota.Inc()
			return Decision{
				Status:     http.StatusTooManyRequests,
				RetryAfter: wait,
				Reason:     "tenant " + t.name + " is over its plans/sec quota",
			}
		}
	}
	obsAdmitted.Inc()
	return Decision{OK: true}
}

// OverCapacity builds the 503 decision for a tenant-level capacity cap
// (fleet size, deployed workflows) discovered past admission.
func OverCapacity(reason string) Decision {
	obsRejCapacity.Inc()
	return Decision{
		Status:     http.StatusServiceUnavailable,
		RetryAfter: capacityRetryAfter,
		Reason:     reason,
	}
}
