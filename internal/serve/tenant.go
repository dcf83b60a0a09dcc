package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
)

// Tenant is one configured consumer of the mediator. Limits left at
// zero are unlimited; a tenant with no Policy sees everything.
type Tenant struct {
	// ID names the tenant in metrics, logs and the dashboard.
	ID string `json:"id"`
	// Keys are the API keys that identify the tenant (X-API-Key header
	// or Authorization: Bearer). A tenant with no keys is header-mapped:
	// requests carrying its ID in X-Tenant-Id select it.
	Keys []string `json:"keys,omitempty"`
	// RatePerSec is the token-bucket refill rate (0 = unlimited).
	RatePerSec float64 `json:"ratePerSec,omitempty"`
	// Burst is the bucket depth (default: ceil(RatePerSec), minimum 1).
	Burst int `json:"burst,omitempty"`
	// MaxConcurrent caps in-flight queries (0 = unlimited).
	MaxConcurrent int `json:"maxConcurrent,omitempty"`
	// QueueDepth bounds how many requests may wait for a concurrency
	// slot; beyond it the tier sheds load with 503 (default 0: no queue).
	QueueDepth int `json:"queueDepth,omitempty"`
	// Policy restricts what the tenant may read (nil = unrestricted).
	Policy *Policy `json:"policy,omitempty"`
}

// burst returns the effective bucket depth.
func (t *Tenant) burst() float64 {
	if t.Burst > 0 {
		return float64(t.Burst)
	}
	if t.RatePerSec >= 1 {
		return float64(int(t.RatePerSec + 0.999999))
	}
	return 1
}

// GetPolicy is a nil-safe Policy accessor.
func (t *Tenant) GetPolicy() *Policy {
	if t == nil {
		return nil
	}
	return t.Policy
}

// Name is a nil-safe ID accessor; a nil tenant reads as "anonymous".
func (t *Tenant) Name() string {
	if t == nil {
		return AnonymousID
	}
	return t.ID
}

// AnonymousID names the default tenant unauthenticated requests map to.
const AnonymousID = "anonymous"

// TenantsConfig is the -tenants file shape: named tenants plus an
// optional override for the anonymous default.
type TenantsConfig struct {
	// Anonymous overrides the default tenant's limits and policy. Its ID
	// and Keys are forced: the anonymous tenant is whoever presents no
	// credential.
	Anonymous *Tenant `json:"anonymous,omitempty"`
	// Tenants are the named tenants.
	Tenants []*Tenant `json:"tenants,omitempty"`
}

// LoadTenants reads and validates a tenant configuration file (JSON,
// see TenantsConfig).
func LoadTenants(path string) (*TenantsConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading tenants config: %w", err)
	}
	return ParseTenants(data)
}

// ParseTenants parses a TenantsConfig document and validates it.
func ParseTenants(data []byte) (*TenantsConfig, error) {
	var cfg TenantsConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("serve: parsing tenants config: %w", err)
	}
	seenID := map[string]bool{}
	seenKey := map[string]bool{}
	for _, t := range cfg.Tenants {
		if t.ID == "" {
			return nil, fmt.Errorf("serve: tenants config: tenant with empty id")
		}
		if t.ID == AnonymousID {
			return nil, fmt.Errorf("serve: tenants config: use the top-level %q member, not a named tenant", AnonymousID)
		}
		if seenID[t.ID] {
			return nil, fmt.Errorf("serve: tenants config: duplicate tenant id %q", t.ID)
		}
		seenID[t.ID] = true
		for _, k := range t.Keys {
			if k == "" {
				return nil, fmt.Errorf("serve: tenants config: tenant %q has an empty key", t.ID)
			}
			if seenKey[k] {
				return nil, fmt.Errorf("serve: tenants config: key %q maps to two tenants", k)
			}
			seenKey[k] = true
		}
		if err := t.Policy.validate(); err != nil {
			return nil, fmt.Errorf("serve: tenants config: tenant %q: %w", t.ID, err)
		}
	}
	if cfg.Anonymous != nil {
		if err := cfg.Anonymous.Policy.validate(); err != nil {
			return nil, fmt.Errorf("serve: tenants config: anonymous: %w", err)
		}
	}
	return &cfg, nil
}

// TenantRegistry resolves requests to tenants.
type TenantRegistry struct {
	anonymous *Tenant
	byKey     map[string]*Tenant
	byID      map[string]*Tenant
	ordered   []*Tenant // anonymous first, then config order
}

// NewTenantRegistry builds a registry from cfg (nil: anonymous only,
// unlimited). The config is assumed validated (ParseTenants).
func NewTenantRegistry(cfg *TenantsConfig) *TenantRegistry {
	r := &TenantRegistry{byKey: map[string]*Tenant{}, byID: map[string]*Tenant{}}
	anon := &Tenant{ID: AnonymousID}
	if cfg != nil && cfg.Anonymous != nil {
		a := *cfg.Anonymous
		a.ID = AnonymousID
		a.Keys = nil
		anon = &a
	}
	r.anonymous = anon
	r.byID[anon.ID] = anon
	r.ordered = append(r.ordered, anon)
	if cfg != nil {
		for _, t := range cfg.Tenants {
			r.byID[t.ID] = t
			r.ordered = append(r.ordered, t)
			for _, k := range t.Keys {
				r.byKey[k] = t
			}
		}
	}
	return r
}

// Anonymous returns the default tenant.
func (r *TenantRegistry) Anonymous() *Tenant { return r.anonymous }

// All lists every tenant, the anonymous default first.
func (r *TenantRegistry) All() []*Tenant { return r.ordered }

// Get resolves a tenant by ID.
func (r *TenantRegistry) Get(id string) (*Tenant, bool) {
	t, ok := r.byID[id]
	return t, ok
}

// Identify maps a request to its tenant: an API key presented via
// X-API-Key or Authorization: Bearer wins; a key-less tenant may be
// selected by X-Tenant-Id (header-mapped deployments where a fronting
// proxy authenticates); everything else is the anonymous tenant. An
// unknown key or tenant ID also falls back to anonymous — presenting a
// bad credential never grants more than presenting none.
func (r *TenantRegistry) Identify(req *http.Request) *Tenant {
	key := req.Header.Get("X-Api-Key") // X-API-Key, canonical: Get copies no key
	if key == "" {
		if auth := req.Header.Get("Authorization"); auth != "" {
			if v, ok := strings.CutPrefix(auth, "Bearer "); ok {
				key = strings.TrimSpace(v)
			}
		}
	}
	if key != "" {
		if t, ok := r.byKey[key]; ok {
			return t
		}
		return r.anonymous
	}
	if id := req.Header.Get("X-Tenant-Id"); id != "" {
		if t, ok := r.byID[id]; ok && len(t.Keys) == 0 {
			return t
		}
	}
	return r.anonymous
}
