package predictor

import "repro/internal/obs"

// Predictor telemetry (§3.3, Fig. 8): how often each error-composition
// model is evaluated, the fitted α per calibration, and the distribution
// of post-calibration absolute prediction errors on the calibration
// samples, in QoS units.
var (
	mPi1Evals = obs.NewCounter("predictor.pi1_evals")
	mPi2Evals = obs.NewCounter("predictor.pi2_evals")
	mCalibs   = obs.NewCounter("predictor.calibrations")
	gAlpha    = obs.NewGauge("predictor.alpha")
	hCalibErr = obs.NewQHistogram("predictor.calibration_abs_error")
)

// observeCalibration records the fitted α and the per-sample absolute
// prediction error of the freshly calibrated model.
func (q *QoSPredictor) observeCalibration(samples []Sample) {
	mCalibs.Inc()
	gAlpha.Set(q.Alpha)
	for _, s := range samples {
		err := q.Predict(s.Cfg) - s.QoS
		if err < 0 {
			err = -err
		}
		hCalibErr.Observe(err)
	}
}
