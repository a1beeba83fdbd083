// Artifact observability: GET /v1/artifacts lists the coders the node's
// disk store holds — which trained coders this fleet member owns — and
// the ccrpd_store_bytes gauge tracks their resident payload size.
// Together they make per-node placement observable, the input a fleet
// rebalancer (or an operator wondering why one node is hot) needs: the
// router decides where a coder id *should* live, this endpoint reports
// where its artifacts actually are.
package server

import (
	"net/http"
	"sort"
	"time"
)

// artifactInfo is the wire shape of one stored artifact. ID is the
// public content-addressed identifier — for coder artifacts it equals
// the coder id clients use against /v1/compress.
type artifactInfo struct {
	ID    string    `json:"id"`
	Kind  string    `json:"kind"` // always "coder": only coders persist
	Size  int       `json:"size_bytes"`
	MTime time.Time `json:"mtime,omitempty"`
}

// artifactsResponse is the GET /v1/artifacts body.
type artifactsResponse struct {
	Artifacts  []artifactInfo `json:"artifacts"`
	TotalBytes int64          `json:"total_bytes"`
	// Store reports whether a disk store is configured at all, so an
	// empty list is distinguishable from a memory-only node.
	Store bool `json:"store"`
}

// listArtifacts enumerates the store's coders, newest first (ties broken
// by id for a deterministic listing). Files of any other class, such as
// the ROM images older daemons persisted, are not listed.
func (s *Server) listArtifacts() (*artifactsResponse, error) {
	resp := &artifactsResponse{Artifacts: []artifactInfo{}}
	if s.cfg.Store == nil {
		return resp, nil
	}
	resp.Store = true
	arts, err := s.cfg.Store.list()
	if err != nil {
		return nil, err
	}
	resp.Artifacts = append(resp.Artifacts, arts...)
	for _, a := range arts {
		resp.TotalBytes += int64(a.Size)
	}
	sort.Slice(resp.Artifacts, func(i, j int) bool {
		if !resp.Artifacts[i].MTime.Equal(resp.Artifacts[j].MTime) {
			return resp.Artifacts[i].MTime.After(resp.Artifacts[j].MTime)
		}
		return resp.Artifacts[i].ID < resp.Artifacts[j].ID
	})
	return resp, nil
}

func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) error {
	resp, err := s.listArtifacts()
	if err != nil {
		return err
	}
	s.metricsMu.Lock()
	s.inst.storeBytes.Set(float64(resp.TotalBytes))
	s.metricsMu.Unlock()
	traceJSON(w, r, resp)
	return nil
}

// refreshStoreBytes recomputes the store-size gauge for a /metrics
// scrape; a node with no store keeps the gauge at zero. Enumeration
// reads one header line per artifact — cheap at catalogue scale, and
// scrapes are seconds apart.
func (s *Server) refreshStoreBytes() {
	if s.cfg.Store == nil {
		return
	}
	resp, err := s.listArtifacts()
	if err != nil {
		return
	}
	s.metricsMu.Lock()
	s.inst.storeBytes.Set(float64(resp.TotalBytes))
	s.metricsMu.Unlock()
}
