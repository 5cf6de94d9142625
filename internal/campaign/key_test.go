package campaign_test

import (
	"math"
	"testing"

	"druzhba/internal/campaign"
	"druzhba/internal/farmd"
)

// TestShardKeySensitivity: changing any one of a key's inputs — the build
// salt, the fingerprint, the seed or the shard size — changes the key, and
// every key is 64 characters the shard store accepts (farmd.ValidShardKey).
func TestShardKeySensitivity(t *testing.T) {
	type in struct {
		salt, fp string
		seed     int64
		n        int
	}
	base := in{"salt", "fingerprint", 7, 4096}
	variants := map[string]in{
		"salt":        {"salt2", base.fp, base.seed, base.n},
		"empty salt":  {"", base.fp, base.seed, base.n},
		"fingerprint": {base.salt, "fingerprint2", base.seed, base.n},
		"seed":        {base.salt, base.fp, 8, base.n},
		"seed sign":   {base.salt, base.fp, -7, base.n},
		"min seed":    {base.salt, base.fp, math.MinInt64, base.n},
		"n":           {base.salt, base.fp, base.seed, 4095},
		"max n":       {base.salt, base.fp, base.seed, math.MaxInt},
		"seed for n":  {base.salt, base.fp, int64(base.n), int(base.seed)},
	}
	key := func(k in) string {
		s := campaign.ShardKeyUnder(k.salt, k.fp, k.seed, k.n)
		if len(s) != 64 || !farmd.ValidShardKey(s) {
			t.Fatalf("%+v: key %q is not 64 characters the shard store accepts", k, s)
		}
		return s
	}
	want := key(base)
	for name, v := range variants {
		if key(v) == want {
			t.Errorf("changing the %s left the key %s", name, want)
		}
	}
	if got := campaign.ShardKey("fp", -1, 4096); len(got) != 64 || !farmd.ValidShardKey(got) {
		t.Errorf("ShardKey under the build salt: %q", got)
	}
}
