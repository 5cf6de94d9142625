package farmd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
)

// Body caps of the fleet protocol, shared by every server that reads such a
// body and every client that reads one back. A shard result has one cap on
// all three paths it travels (lease reply, shared-store PUT, shared-store
// GET): a result the store accepts must be one a worker can read back.
const (
	MaxMatrixBytes      = 1 << 20   // POST /v1/campaigns request
	MaxLeaseBytes       = 8 << 20   // POST /v1/leases request
	MaxShardResultBytes = 256 << 20 // lease reply, /v1/shards/{key} either way
)

// Wire is the client side of the fleet protocol: it builds a request with
// an optional JSON body and the fleet's bearer token, performs it, and
// turns a non-2xx answer into a *StatusError.
type Wire struct {
	Client *http.Client // nil = http.DefaultClient
	Token  string       // "" = no Authorization header
}

// StatusError is a non-2xx answer from a fleet daemon: the peer is alive
// and refused the request, as opposed to a transport failure.
type StatusError struct {
	Status string // e.g. "401 Unauthorized"
	Msg    string // the {"error": ...} body's message, or the raw body
}

func (e *StatusError) Error() string { return e.Status + ": " + e.Msg }

// Do sends one request — in (nil = no body) as JSON, on top of a copy of
// header (nil = none) — and returns the response once its status is 2xx;
// the caller owns the body.
func (c Wire) Do(ctx context.Context, method, url string, in any, header http.Header) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if header != nil {
		req.Header = header.Clone()
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var decoded struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(msg, &decoded) == nil && decoded.Error != "" {
			msg = []byte(decoded.Error)
		}
		return nil, &StatusError{Status: resp.Status, Msg: string(bytes.TrimSpace(msg))}
	}
	return resp, nil
}

// Call is Do for the fleet's one-document exchanges. A nil out discards the
// reply; otherwise the reply is a shard result, decoded under
// MaxShardResultBytes. The connection is drained for reuse either way.
func (c Wire) Call(ctx context.Context, method, url string, in any, out *WireShardResult) error {
	resp, err := c.Do(ctx, method, url, in, nil)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck // drain for reuse
		resp.Body.Close()
	}()
	if out == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, MaxShardResultBytes)).Decode(out)
}
