package coref

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// equivalentsResponse is the JSON wire format of the REST service,
// mirroring the sameas.org API shape the paper wraps ("returns all the
// URIs that are equivalent to the one given in input").
type equivalentsResponse struct {
	URI         string   `json:"uri"`
	Equivalents []string `json:"equivalents"`
}

// Handler serves the co-reference REST API over a Store:
//
//	GET /equivalents?uri=<uri>  ->  {"uri": ..., "equivalents": [...]}
//	GET /stats                  ->  {"members": n, "classes": n, "pairs": n}
func Handler(s *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/equivalents", func(w http.ResponseWriter, r *http.Request) {
		uri := r.URL.Query().Get("uri")
		if uri == "" {
			http.Error(w, "missing uri parameter", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(equivalentsResponse{URI: uri, Equivalents: s.Equivalents(uri)})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]int{
			"members": s.Members(),
			"classes": s.Classes(),
			"pairs":   s.Pairs(),
		})
	})
	return mux
}

// Client queries a remote co-reference service; it implements the same
// Equivalents contract as a local Store so the sameas function can be
// backed by either.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 10 * time.Second}}
}

// Equivalents fetches the equivalence class of uri. On transport errors it
// degrades to the singleton class, matching the paper's default behaviour
// (an unresolvable URI simply stays untranslated).
func (c *Client) Equivalents(uri string) []string {
	eq, err := c.Lookup(uri)
	if err != nil {
		return []string{uri}
	}
	return eq
}

// Lookup fetches the equivalence class of uri, or the error that kept the
// service from answering: Equivalents without the degradation, for a
// caller that must not keep a failure's singleton class.
func (c *Client) Lookup(uri string) ([]string, error) {
	resp, err := c.HTTP.Get(c.BaseURL + "/equivalents?uri=" + url.QueryEscape(uri))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("coref: %s: %s", uri, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	var parsed equivalentsResponse
	if err := json.Unmarshal(body, &parsed); err != nil {
		return nil, fmt.Errorf("coref: decoding %s: %w", uri, err)
	}
	if len(parsed.Equivalents) == 0 {
		return []string{uri}, nil
	}
	return parsed.Equivalents, nil
}

// Stats fetches service statistics.
func (c *Client) Stats() (members, classes, pairs int, err error) {
	resp, err := c.HTTP.Get(c.BaseURL + "/stats")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	var m map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, 0, 0, fmt.Errorf("coref: decoding stats: %w", err)
	}
	return m["members"], m["classes"], m["pairs"], nil
}
