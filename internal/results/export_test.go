package results

import "context"

// The degradation constants, for the fault tests of package results_test.
const (
	FailThreshold = failThreshold
	ReprobeAfter  = reprobeAfter
)

// GetOrCompute resolves key, running compute exactly once across all
// concurrent callers of a missing key: the Get/Publish protocol every
// production caller follows, for the tests of both packages. cached reports
// whether this caller was served without running compute. A compute error,
// cancellation or panic abandons the claim and wakes the waiters to retry.
func (c *Cache[V]) GetOrCompute(ctx context.Context, key string, compute func(context.Context) (V, error)) (v V, cached bool, err error) {
	v, cl, err := c.Get(ctx, key)
	if cl == nil {
		return v, err == nil, err
	}
	defer cl.Abandon() // no-op once published; covers errors and panics
	if v, err = compute(ctx); err != nil {
		return v, false, err
	}
	cl.Publish(v)
	return v, false, nil
}
