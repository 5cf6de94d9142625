package campaign

// ShardKeyUnder is ShardKey under salt in place of the build's, for the
// tests outside the package that check keys against the cache's key space.
func ShardKeyUnder(salt, fingerprint string, seed int64, n int) string {
	return newShardKeyer(salt, fingerprint).key(seed, n)
}
