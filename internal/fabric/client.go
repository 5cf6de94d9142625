package fabric

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"druzhba/internal/farmd"
)

// Heartbeat announces a worker to a coordinator every interval (0 = 5s)
// until ctx is cancelled: POST /v1/workers with the worker's advertised
// base URL. Registration is the heartbeat — there is no separate
// deregistration; a worker that dies (or is SIGKILLed) simply stops
// announcing and ages out of the registry after the coordinator's TTL,
// which is the fabric's failure detector. Send failures are retried at the
// next tick; the fleet heals itself when the coordinator comes back.
func Heartbeat(ctx context.Context, coordURL, selfURL, token string, interval time.Duration, client *http.Client) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		RegisterWorker(ctx, coordURL, selfURL, token, client) //nolint:errcheck // retried at the next tick
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return
		}
	}
}

// RegisterWorker performs one synchronous registration, returning an error
// when the coordinator rejected or never received it — the startup probe a
// daemon can use to fail fast on a bad -coord flag.
func RegisterWorker(ctx context.Context, coordURL, selfURL, token string, client *http.Client) error {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	wire := farmd.Wire{Client: client, Token: token}
	url := strings.TrimSuffix(coordURL, "/") + "/v1/workers"
	if err := wire.Call(ctx, http.MethodPost, url, map[string]string{"url": selfURL}, nil); err != nil {
		return fmt.Errorf("fabric: register with %s: %w", coordURL, err)
	}
	return nil
}
