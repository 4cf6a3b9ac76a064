package experiments

// Paper-reported values used for side-by-side comparison in reports.
var (
	// Table I: non-private accuracy and ms/iteration.
	paperNonPrivateAcc  = map[string]float64{"mnist": 0.9798, "cifar10": 0.674, "lfw": 0.695, "adult": 0.8424, "cancer": 0.993}
	paperNonPrivateCost = map[string]float64{"mnist": 6.8, "cifar10": 32.5, "lfw": 30.9, "adult": 5.1, "cancer": 4.9}

	// Table III: ms per local iteration per client.
	paperTable3 = map[string]map[string]float64{
		"non-private":    {"mnist": 6.8, "cifar10": 32.5, "lfw": 30.9, "adult": 5.1, "cancer": 5.1},
		"fed-sdp":        {"mnist": 6.9, "cifar10": 33.8, "lfw": 31.3, "adult": 5.2, "cancer": 5.1},
		"fed-cdp":        {"mnist": 22.4, "cifar10": 131.5, "lfw": 112.4, "adult": 11.8, "cancer": 11.9},
		"fed-cdp(decay)": {"mnist": 22.6, "cifar10": 132.1, "lfw": 114.6, "adult": 12.1, "cancer": 12.0},
	}

	// Table IV: Fed-CDP accuracy by clipping bound (σ=6).
	paperTable4 = map[string]map[float64]float64{
		"mnist":   {0.5: 0.914, 1: 0.934, 2: 0.943, 4: 0.949, 6: 0.933, 8: 0.923},
		"cifar10": {0.5: 0.408, 1: 0.568, 2: 0.602, 4: 0.633, 6: 0.624, 8: 0.611},
		"lfw":     {0.5: 0.582, 1: 0.594, 2: 0.619, 4: 0.649, 6: 0.627, 8: 0.601},
		"adult":   {0.5: 0.81, 1: 0.822, 2: 0.825, 4: 0.824, 6: 0.807, 8: 0.796},
		"cancer":  {0.5: 0.965, 1: 0.972, 2: 0.979, 4: 0.979, 6: 0.972, 8: 0.972},
	}

	// Table V: Fed-CDP accuracy by noise scale (C=4).
	paperTable5 = map[string]map[float64]float64{
		"mnist":   {0.5: 0.956, 1: 0.954, 2: 0.952, 4: 0.951, 6: 0.949, 8: 0.934},
		"cifar10": {0.5: 0.646, 1: 0.641, 2: 0.639, 4: 0.634, 6: 0.633, 8: 0.612},
		"lfw":     {0.5: 0.683, 1: 0.678, 2: 0.672, 4: 0.667, 6: 0.649, 8: 0.646},
		"adult":   {0.5: 0.838, 1: 0.837, 2: 0.836, 4: 0.834, 6: 0.824, 8: 0.822},
		"cancer":  {0.5: 0.993, 1: 0.993, 2: 0.993, 4: 0.993, 6: 0.979, 8: 0.979},
	}

	// Table VI: privacy spending ε (δ=1e-5), moments accountant.
	paperTable6CDP100 = map[string]float64{"mnist": 0.8227, "cifar10": 0.8227, "lfw": 0.6356, "adult": 0.2761, "cancer": 0.1469}
	paperTable6CDP1   = map[string]float64{"mnist": 0.0845, "cifar10": 0.0845, "lfw": 0.0689, "adult": 0.0494, "cancer": 0.0467}
	paperTable6SDP    = map[string]float64{"mnist": 0.8536, "cifar10": 0.8536, "lfw": 0.6677, "adult": 0.3025, "cancer": 0.2065}

	// Table VII: attack effectiveness (MNIST / LFW averages of 100 clients).
	paperTable7 = map[string]map[string]struct {
		Succeed  bool
		Distance float64
		Iters    int
	}{
		"mnist-type01": {
			"non-private":    {true, 0.1549, 6},
			"fed-sdp":        {false, 0.6991, 300},
			"fed-cdp":        {false, 0.7695, 300},
			"fed-cdp(decay)": {false, 0.937, 300},
		},
		"mnist-type2": {
			"non-private":    {true, 0.0008, 7},
			"fed-sdp":        {true, 0.0008, 7},
			"fed-cdp":        {false, 0.739, 300},
			"fed-cdp(decay)": {false, 0.943, 300},
		},
		"lfw-type01": {
			"non-private":    {true, 0.2214, 24},
			"fed-sdp":        {false, 0.7352, 300},
			"fed-cdp":        {false, 0.8036, 300},
			"fed-cdp(decay)": {false, 0.941, 300},
		},
		"lfw-type2": {
			"non-private":    {true, 0.0014, 25},
			"fed-sdp":        {true, 0.0014, 25},
			"fed-cdp":        {false, 0.6626, 300},
			"fed-cdp(decay)": {false, 0.945, 300},
		},
	}

	// Table II: accuracy on MNIST by K and Kt/K.
	paperTable2 = map[string]map[string]float64{
		"non-private":    {"100/5%": 0.924, "100/10%": 0.954, "100/20%": 0.959, "100/50%": 0.965, "1000/10%": 0.980, "10000/10%": 0.980},
		"fed-sdp":        {"100/5%": 0.803, "100/10%": 0.823, "100/20%": 0.834, "100/50%": 0.872, "1000/10%": 0.928, "10000/10%": 0.939},
		"fed-cdp":        {"100/5%": 0.815, "100/10%": 0.831, "100/20%": 0.858, "100/50%": 0.903, "1000/10%": 0.956, "10000/10%": 0.963},
		"fed-cdp(decay)": {"100/5%": 0.833, "100/10%": 0.842, "100/20%": 0.866, "100/50%": 0.909, "1000/10%": 0.975, "10000/10%": 0.978},
	}
)
