// Package uddi implements a UDDI-style service registry: the centralized
// publish/find substrate of WSPeer's standard (HTTP) binding. It models the
// subset of UDDI the paper's discovery flow needs — businessService records
// with category bags and binding templates, name and category queries with
// UDDI '%' wildcards — and exposes the registry both in-process and as a
// SOAP service hosted by WSPeer's own engine (see service.go), so the
// registry is itself a WSPeer service.
//
// The registry is deliberately a single process with no replication: the
// scalability and churn experiments (DESIGN.md E5/E6) rely on it exhibiting
// the centralized failure and bottleneck characteristics the paper
// attributes to client/server discovery.
package uddi

import (
	"crypto/rand"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// KeyedReference categorizes a service within a taxonomy, as in a UDDI
// categoryBag.
type KeyedReference struct {
	TModelKey string
	KeyName   string
	KeyValue  string
}

// BindingTemplate is one concrete access point for a service.
type BindingTemplate struct {
	BindingKey   string
	AccessPoint  string // endpoint URL
	WSDLLocation string // URL the service description can be fetched from
}

// BusinessService is a registered service record.
type BusinessService struct {
	ServiceKey  string
	Name        string
	Description string
	CategoryBag []KeyedReference
	Bindings    []BindingTemplate
	// WSDLDocument optionally carries the WSDL inline, sparing consumers
	// the second fetch to WSDLLocation.
	WSDLDocument string
}

// FindQuery selects services. Name supports the UDDI '%' wildcard (prefix,
// suffix or substring); all Categories must match for a record to qualify.
type FindQuery struct {
	Name       string
	Categories []KeyedReference
	MaxRows    int32
}

// ErrUnavailable is returned by a registry failed with SetFailed: a
// directory outage.
var ErrUnavailable = fmt.Errorf("uddi: registry unavailable")

// TModel is a UDDI technical model: a named, reusable concept other
// records reference by key — taxonomies for category bags, or interface
// fingerprints whose OverviewURL points at a WSDL document.
type TModel struct {
	TModelKey   string
	Name        string
	Description string
	OverviewURL string
}

// Registry is an in-process UDDI-style registry. It is safe for concurrent
// use.
type Registry struct {
	mu       sync.RWMutex
	services map[string]*BusinessService
	tmodels  map[string]*TModel

	failed  atomic.Bool
	queries atomic.Int64
	writes  atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		services: make(map[string]*BusinessService),
		tmodels:  make(map[string]*TModel),
	}
}

// RegisterTModel stores a tModel, assigning a key if absent, and returns
// the key. Registering an existing key replaces the record.
func (r *Registry) RegisterTModel(tm TModel) (string, error) {
	if r.failed.Load() {
		return "", ErrUnavailable
	}
	if tm.Name == "" {
		return "", fmt.Errorf("uddi: tModel has no name")
	}
	if tm.TModelKey == "" {
		tm.TModelKey = NewKey()
	}
	r.writes.Add(1)
	cp := tm
	r.mu.Lock()
	r.tmodels[cp.TModelKey] = &cp
	r.mu.Unlock()
	return cp.TModelKey, nil
}

// GetTModel returns a tModel by key, or nil.
func (r *Registry) GetTModel(key string) (*TModel, error) {
	if r.failed.Load() {
		return nil, ErrUnavailable
	}
	r.queries.Add(1)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if tm, ok := r.tmodels[key]; ok {
		cp := *tm
		return &cp, nil
	}
	return nil, nil
}

// FindTModels returns tModels whose names match the UDDI '%' pattern.
func (r *Registry) FindTModels(namePattern string) ([]TModel, error) {
	if r.failed.Load() {
		return nil, ErrUnavailable
	}
	r.queries.Add(1)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []TModel
	for _, tm := range r.tmodels {
		if matchName(namePattern, tm.Name) {
			out = append(out, *tm)
		}
	}
	return out, nil
}

// NewKey generates a UDDI-style uuid key.
func NewKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("uddi: entropy source failed: " + err.Error())
	}
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	return fmt.Sprintf("uuid:%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

// Publish stores a service record, assigning a ServiceKey if absent, and
// returns the key. Publishing an existing key replaces the record.
func (r *Registry) Publish(svc BusinessService) (string, error) {
	if r.failed.Load() {
		return "", ErrUnavailable
	}
	if svc.Name == "" {
		return "", fmt.Errorf("uddi: service has no name")
	}
	if svc.ServiceKey == "" {
		svc.ServiceKey = NewKey()
	}
	r.writes.Add(1)
	cp := svc
	r.mu.Lock()
	r.services[cp.ServiceKey] = &cp
	r.mu.Unlock()
	return cp.ServiceKey, nil
}

// Unpublish removes a record; it reports whether the key existed.
func (r *Registry) Unpublish(key string) (bool, error) {
	if r.failed.Load() {
		return false, ErrUnavailable
	}
	r.writes.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.services[key]; !ok {
		return false, nil
	}
	delete(r.services, key)
	return true, nil
}

// Get returns the record for a key, or nil.
func (r *Registry) Get(key string) (*BusinessService, error) {
	if r.failed.Load() {
		return nil, ErrUnavailable
	}
	r.queries.Add(1)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if svc, ok := r.services[key]; ok {
		cp := *svc
		return &cp, nil
	}
	return nil, nil
}

// Find returns the records matching the query, in unspecified order,
// truncated to MaxRows when positive.
func (r *Registry) Find(q FindQuery) ([]BusinessService, error) {
	if r.failed.Load() {
		return nil, ErrUnavailable
	}
	r.queries.Add(1)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []BusinessService
	for _, svc := range r.services {
		if !matchName(q.Name, svc.Name) {
			continue
		}
		if !matchCategories(q.Categories, svc.CategoryBag) {
			continue
		}
		out = append(out, *svc)
		if q.MaxRows > 0 && int32(len(out)) >= q.MaxRows {
			break
		}
	}
	return out, nil
}

// Len reports the number of records.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.services)
}

// SetFailed simulates registry failure (or recovery) for the resilience
// experiments: all operations return ErrUnavailable while failed.
func (r *Registry) SetFailed(failed bool) { r.failed.Store(failed) }

// Stats reports how many queries and writes the registry has served — the
// "load at the hottest node" measurement in the scalability experiment.
func (r *Registry) Stats() (queries, writes int64) {
	return r.queries.Load(), r.writes.Load()
}

// matchName implements UDDI-style name matching: empty pattern matches
// everything; '%' is a multi-character wildcard; otherwise exact match.
func matchName(pattern, name string) bool {
	if pattern == "" || pattern == "%" {
		return true
	}
	if !strings.Contains(pattern, "%") {
		return pattern == name
	}
	parts := strings.Split(pattern, "%")
	// Anchored prefix.
	if parts[0] != "" {
		if !strings.HasPrefix(name, parts[0]) {
			return false
		}
		name = name[len(parts[0]):]
	}
	// Anchored suffix.
	last := parts[len(parts)-1]
	if last != "" {
		if !strings.HasSuffix(name, last) {
			return false
		}
		name = name[:len(name)-len(last)]
	}
	// Interior fragments in order.
	for _, frag := range parts[1 : len(parts)-1] {
		if frag == "" {
			continue
		}
		i := strings.Index(name, frag)
		if i < 0 {
			return false
		}
		name = name[i+len(frag):]
	}
	return true
}

// matchCategories requires every queried reference to appear in the bag
// (matching on TModelKey and KeyValue; KeyName is informational).
func matchCategories(want, have []KeyedReference) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h.TModelKey == w.TModelKey && h.KeyValue == w.KeyValue {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
