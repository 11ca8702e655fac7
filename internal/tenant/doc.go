// Package tenant is the control plane's tenancy subsystem: it
// namespaces everything the daemon holds so many isolated tenants share
// one process without sharing any state.
//
// Each tenant owns
//
//   - a durable namespace — its own WAL segment and snapshot lineage
//     under <dataDir>/<tenant>/ (see store.OpenAll), recovered
//     independently on boot;
//   - quotas — a token bucket on plans/sec plus caps on deployed
//     workflows and fleet size;
//   - admission — the registry sheds load early: an over-quota request
//     is rejected with 429 and a Retry-After hint before any planning
//     work happens, and a request past a fleet cap with 503.
//
// Every tenant plans on the daemon's one planner engine (see
// internal/httpapi); its plan cache is keyed by request content.
//
// The Registry is the subsystem's root object: CRUD over tenants,
// durable tenant metadata (tenant.json per namespace) and admission.
// Everything is observable through tenant.* metrics on the shared obs
// registry: admitted/rejected counters and the live tenant count.
package tenant
