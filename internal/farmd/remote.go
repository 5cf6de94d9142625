package farmd

import (
	"context"
	"net/http"
	"strings"
	"time"

	"druzhba/internal/campaign"
)

// RemoteCache is a campaign.ShardCache client against a fabric
// coordinator's shared shard store (GET/PUT /v1/shards/{key}). Stacked
// under a worker's local tiers it turns the fleet's shard work into a
// common pool: a shard any worker ever executed — under the
// coordinator-issued key, so key spaces agree across binaries — is a hit
// for every other worker, and for the coordinator's own engine after a
// worker dies.
//
// All failures (network, non-2xx, undecodable body) degrade to a miss or a
// dropped write: the remote tier can only save work, never lose or corrupt
// a result, so chaos on the cache path is invisible in reports.
type RemoteCache struct {
	base string
	wire Wire
}

// NewRemoteCache returns a remote cache against the coordinator at
// baseURL, authenticating writes with token (empty = no auth). client nil
// means a dedicated client with a short timeout — the remote tier is an
// optimization and must never wedge shard execution behind a dead
// coordinator.
func NewRemoteCache(baseURL, token string, client *http.Client) *RemoteCache {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &RemoteCache{base: strings.TrimSuffix(baseURL, "/"), wire: Wire{Client: client, Token: token}}
}

func (c *RemoteCache) url(key string) string { return c.base + "/v1/shards/" + key }

// Get implements campaign.ShardCache.
func (c *RemoteCache) Get(key string) (*campaign.ShardResult, bool) {
	var wire WireShardResult
	if err := c.wire.Call(context.TODO(), http.MethodGet, c.url(key), nil, &wire); err != nil || wire.Error != "" {
		return nil, false
	}
	return wire.Result(), true
}

// Put implements campaign.ShardCache; results with errors are never
// shipped, matching the local tiers.
func (c *RemoteCache) Put(key string, res *campaign.ShardResult) {
	if res == nil || res.Err != nil {
		return
	}
	c.wire.Call(context.TODO(), http.MethodPut, c.url(key), WireResult(res), nil) //nolint:errcheck // a dropped write is a later miss
}
