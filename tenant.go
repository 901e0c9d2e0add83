package mapa

import "time"

// Tenant is one client's handle on a shared System — the unit of
// multi-tenancy the mapad daemon hands out per tenant name. A tenant
// decides with the System's one allocator over the System's one
// live-view stream: it holds no allocator, no views and no copy of the
// machine state, so registering tenants costs nothing per state change
// and a tenant's decisions are exactly System.Allocate's. Tenancy
// changes who holds a lease, not where it lands.
//
// Tenant is safe for concurrent use. Leases live in the System's one
// namespace: any handle may release any lease — per-tenant ownership
// enforcement is the daemon's job, not the library's.
type Tenant struct {
	s  *System
	id int
}

// NewTenant returns a new tenant handle on the System with a fresh
// System-unique ID. The handle reads the live state on every call, so
// a tenant joining mid-traffic — or surviving a Repartition — serves
// correctly from its first decision. The error is always nil; the
// signature is kept for API compatibility.
func (s *System) NewTenant() (*Tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextTenantID++
	return &Tenant{s: s, id: s.nextTenantID}, nil
}

// ID returns the tenant's System-unique registration number.
func (t *Tenant) ID() int { return t.id }

// Allocate leases GPUs for the request (System.Allocate). The returned
// lease is valid with any handle on the System.
func (t *Tenant) Allocate(req JobRequest) (*Lease, error) { return t.s.Allocate(req) }

// Release returns a lease's GPUs to the free pool (System.Release).
func (t *Tenant) Release(l *Lease) error { return t.s.Release(l) }

// Renew extends or clears a lease's TTL deadline (System.Renew).
// Ownership enforcement — only the tenant that allocated a lease may
// renew it — is the daemon's job, like Release.
func (t *Tenant) Renew(id int, ttl time.Duration) (int64, error) { return t.s.Renew(id, ttl) }

// Close ends the tenant. A tenant holds nothing but its ID, so there
// is nothing to free; its leases stay valid via the System, and
// releasing them is the caller's responsibility.
func (t *Tenant) Close() {}
