package tensorops

// ForEachTier is forEachTier for the package's external tests, which reach
// the kernels through graph executions.
var ForEachTier = forEachTier
