package attack

import "math"

// Objective evaluates a scalar loss and its gradient at a flat point.
type Objective func(x []float64) (loss float64, grad []float64)

// StopFn is called after every optimizer iteration with the current loss;
// returning true stops the optimization (e.g. attack success threshold hit).
type StopFn func(iter int, loss float64) bool

// Adam minimizes obj from x (in place) for up to maxIters iterations.
// It returns the number of iterations executed and the final loss.
func Adam(obj Objective, x []float64, lr float64, maxIters int, stop StopFn) (int, float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	m := make([]float64, len(x))
	v := make([]float64, len(x))
	loss, grad := obj(x)
	for it := 1; it <= maxIters; it++ {
		for i, g := range grad {
			m[i] = float64(beta1*m[i]) + float64((1-beta1)*g)
			v[i] = float64(beta2*v[i]) + float64((1-beta2)*g*g)
			mh := m[i] / (1 - math.Pow(beta1, float64(it)))
			vh := v[i] / (1 - math.Pow(beta2, float64(it)))
			x[i] -= lr * mh / (math.Sqrt(vh) + eps)
		}
		loss, grad = obj(x)
		if stop != nil && stop(it, loss) {
			return it, loss
		}
	}
	return maxIters, loss
}

// LBFGS minimizes obj from x (in place) with the two-loop recursion and an
// Armijo backtracking line search — the optimizer the paper's attack uses.
// It returns the number of iterations executed and the final loss.
func LBFGS(obj Objective, x []float64, maxIters int, stop StopFn) (int, float64) {
	const (
		hist     = 10
		armijoC  = 1e-4
		shrink   = 0.5
		maxLS    = 25
		gradTol  = 1e-12
		stepInit = 1.0
	)
	n := len(x)
	loss, grad := obj(x)

	var sHist, yHist [][]float64
	var rhoHist []float64

	dot := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += float64(a[i] * b[i])
		}
		return s
	}

	for it := 1; it <= maxIters; it++ {
		// Two-loop recursion for the search direction d = -H·grad.
		q := append([]float64(nil), grad...)
		k := len(sHist)
		alpha := make([]float64, k)
		for i := k - 1; i >= 0; i-- {
			alpha[i] = rhoHist[i] * dot(sHist[i], q)
			for j := range q {
				q[j] -= float64(alpha[i] * yHist[i][j])
			}
		}
		// Initial Hessian scaling.
		gamma := 1.0
		if k > 0 {
			sy := dot(sHist[k-1], yHist[k-1])
			yy := dot(yHist[k-1], yHist[k-1])
			if yy > 0 {
				gamma = sy / yy
			}
		}
		for j := range q {
			q[j] *= gamma
		}
		for i := 0; i < k; i++ {
			beta := float64(rhoHist[i] * dot(yHist[i], q))
			for j := range q {
				q[j] += float64((alpha[i] - beta) * sHist[i][j])
			}
		}
		d := q
		for j := range d {
			d[j] = -d[j]
		}
		// Ensure descent; otherwise reset to steepest descent.
		dg := dot(d, grad)
		if dg >= 0 {
			for j := range d {
				d[j] = -grad[j]
			}
			dg = -dot(grad, grad)
			sHist, yHist, rhoHist = nil, nil, nil
		}
		if -dg < gradTol {
			return it - 1, loss
		}

		// Armijo backtracking line search with expansion: if the unit step
		// already satisfies Armijo, grow the step while it keeps improving
		// (prevents crawling through curved valleys with a conservative
		// initial Hessian scaling).
		step := stepInit
		xNew := make([]float64, n)
		eval := func(s float64) (float64, []float64) {
			for j := range xNew {
				xNew[j] = x[j] + float64(s*d[j])
			}
			return obj(xNew)
		}
		lossNew, gradNew := eval(step)
		ok := lossNew <= loss+float64(armijoC*step*dg)
		if ok {
			for grow := 0; grow < 12; grow++ {
				lossTry, gradTry := eval(step * 2)
				if lossTry <= loss+float64(float64(armijoC*step)*2*dg) && lossTry < lossNew {
					step *= 2
					lossNew, gradNew = lossTry, gradTry
					continue
				}
				break
			}
			// Re-evaluate at the chosen step so xNew matches lossNew.
			lossNew, gradNew = eval(step)
		} else {
			for ls := 0; ls < maxLS; ls++ {
				step *= shrink
				lossNew, gradNew = eval(step)
				if lossNew <= loss+float64(armijoC*step*dg) {
					ok = true
					break
				}
			}
		}
		if !ok {
			// No progress possible along this direction.
			return it - 1, loss
		}

		s := make([]float64, n)
		y := make([]float64, n)
		for j := range s {
			s[j] = xNew[j] - x[j]
			y[j] = gradNew[j] - grad[j]
		}
		if sy := dot(s, y); sy > 1e-10 {
			sHist = append(sHist, s)
			yHist = append(yHist, y)
			rhoHist = append(rhoHist, 1/sy)
			if len(sHist) > hist {
				sHist = sHist[1:]
				yHist = yHist[1:]
				rhoHist = rhoHist[1:]
			}
		}
		copy(x, xNew)
		loss, grad = lossNew, gradNew
		if stop != nil && stop(it, loss) {
			return it, loss
		}
	}
	return maxIters, loss
}
