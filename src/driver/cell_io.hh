/**
 * @file
 * Lossless (de)serialization of a CellResult — the value format of
 * the persistent sweep-cell cache (driver/cell_cache).
 *
 * The existing sweepToJson() emitters are presentation formats:
 * they omit raw fields, merge others into derived metrics, and so
 * cannot reconstruct a CellResult. This codec is the opposite — it
 * round-trips *every* raw field (run totals, predictor stats, the
 * full metrics/trace/accuracy snapshots, the captured PLT profile)
 * so that a cache hit feeds the aggregator exactly the bytes a
 * fresh simulation would have. Combined with util/json.hh's
 * shortest-round-trip double emission (parse(emit(x)) == x
 * bit-exactly), a warm sweep's results document is byte-identical
 * to the cold run's.
 *
 * Deliberately NOT round-tripped: wallSeconds (volatile, excluded
 * from canonical output; a cached cell reports 0) and the
 * aggregator-derived fields (cycleError, signedCycleError,
 * hasBaseline, estSpeedupR133) — aggregate() recomputes those after
 * every sweep, cached or not.
 *
 * Schema: "ospredict-cell-v1". Any mismatch decodes to nullopt —
 * the cache treats it as a miss, never a crash.
 */

#ifndef OSP_DRIVER_CELL_IO_HH
#define OSP_DRIVER_CELL_IO_HH

#include <optional>
#include <string>

#include "sweep.hh"

namespace osp
{

inline constexpr const char *cellSchema = "ospredict-cell-v1";

/** Serialize @p result to the compact cache value form. */
std::string encodeCellResult(const CellResult &result);

/** Parse a cache value; nullopt unless every member has the order,
 *  kind and range encodeCellResult() gives it, so what decodes
 *  re-encodes to the same document. */
std::optional<CellResult> decodeCellResult(std::string_view text);

/** Append a sample section's measured and estimated fields, from
 *  "num_intervals" to "strata", to the JSON object @p obj: the one
 *  field layout shared by the cell codec and the results document's
 *  sample section. */
void addSampleFields(JsonValue &obj, const CellSampleSection &s);

} // namespace osp

#endif // OSP_DRIVER_CELL_IO_HH
