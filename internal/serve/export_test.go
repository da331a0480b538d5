package serve

// StreamShuffleSalt exposes the snapshot-shuffle seed salt to the
// external test package: the e2e bit-identity test reproduces a served
// stream verdict with a direct core.Test call and must derive the
// replay shuffle's RNG exactly as the server does.
const StreamShuffleSalt = streamShuffleSalt

// ClosenessSamplerSaltB and ClosenessShuffleSaltB expose the side-B seed
// salts of /v1/closeness: the bit-identity suite reconstructs both
// sides' oracles exactly as resolveSource does.
const (
	ClosenessSamplerSaltB = closenessSamplerSaltB
	ClosenessShuffleSaltB = closenessShuffleSaltB
)

// WithDefaults exposes Config resolution so tests can pin the default
// SieveWorkers clamp without starting a server.
func (c Config) WithDefaults() Config { return c.withDefaults() }
