/**
 * @file
 * JSON codec for MetricsSnapshot, the on-disk telemetry encoding of
 * ospredict-cell-v1 cache values.
 *
 * The format is part of the cell cache's byte-identity contract:
 * counters and gauges as compact [component, name, value] arrays,
 * histograms as keyed objects with occupied buckets listed as
 * [low, count] pairs. Changing a single byte here invalidates every
 * cached cell, so additions must be new keys, never reshapes.
 */

#ifndef OSP_OBS_SNAPSHOT_IO_HH
#define OSP_OBS_SNAPSHOT_IO_HH

#include "obs/metrics.hh"
#include "util/json.hh"

namespace osp::obs
{

/** Add a histogram's "count", "sum" and occupied [low, count]
 *  "buckets" to the JSON object @p obj: the one histogram layout of
 *  every telemetry document. */
void addHistogramFields(JsonValue &obj, const HistogramEntry &h);

/** Encode a snapshot; inverse of metricsSnapshotFromJson. */
JsonValue metricsSnapshotToJson(const MetricsSnapshot &m);

/** Decode into @p m (appending to its vectors); false on any
 *  structure, member order or value kind metricsSnapshotToJson()
 *  does not write, leaving @p m partially filled. */
bool metricsSnapshotFromJson(const JsonValue &v, MetricsSnapshot &m);

} // namespace osp::obs

#endif // OSP_OBS_SNAPSHOT_IO_HH
