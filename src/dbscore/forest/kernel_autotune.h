/**
 * @file
 * Compatibility stub: ForestKernel has no build-time autotuner and so
 * no tuning cache. AutotuneCacheClear() is kept as a no-op for callers
 * that still clear that cache between timed windows.
 */
#ifndef DBSCORE_FOREST_KERNEL_AUTOTUNE_H
#define DBSCORE_FOREST_KERNEL_AUTOTUNE_H

namespace dbscore {

/** No-op: there is no autotune cache to clear. */
inline void
AutotuneCacheClear()
{
}

}  // namespace dbscore

#endif  // DBSCORE_FOREST_KERNEL_AUTOTUNE_H
