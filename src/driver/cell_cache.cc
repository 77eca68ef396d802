#include "cell_cache.hh"

#include "cell_io.hh"
#include "store/claim_table.hh"
#include "util/hash.hh"

namespace osp
{

namespace
{

constexpr std::string_view cellPrefix = "cell/";

JsonValue
relearnContext(const RelearnParams &p)
{
    JsonValue v = JsonValue::object();
    v.add("strategy", static_cast<std::uint64_t>(p.strategy));
    v.add("p_min", p.pMin);
    v.add("moving_window", p.movingWindow);
    v.add("delayed_threshold", p.delayedThreshold);
    v.add("min_epos", p.minEpos);
    v.add("alpha", p.alpha);
    return v;
}

JsonValue
predictorContext(const PredictorParams &p)
{
    JsonValue v = JsonValue::object();
    v.add("doc", p.doc);
    v.add("p_min", p.pMin);
    v.add("learning_window", p.learningWindow);
    v.add("warmup_invocations", p.warmupInvocations);
    v.add("max_warmup_invocations", p.maxWarmupInvocations);
    v.add("stability_window", p.stabilityWindow);
    v.add("stability_tolerance", p.stabilityTolerance);
    v.add("audit_every", p.auditEvery);
    v.add("audit_tolerance", p.auditTolerance);
    v.add("audit_warmup", p.auditWarmup);
    v.add("audit_trigger_count", p.auditTriggerCount);
    v.add("audit_ci_min_samples", p.auditCiMinSamples);
    v.add("audit_mean_tolerance", p.auditMeanTolerance);
    v.add("cluster_range", p.clusterRange);
    // A removed knob (recency-weighted cluster means) that was
    // always 0; kept so keys do not move.
    v.add("ema_alpha", 0.0);
    // A removed knob (instruction-mix signatures) that was always
    // off; kept so keys do not move.
    v.add("use_mix_signature", false);
    v.add("relearn", relearnContext(p.relearn));
    // The PLT is the only predictor since the learned backend was
    // removed; kept so keys do not move.
    v.add("backend", "plt");
    return v;
}

JsonValue
cacheContext(const CacheParams &c)
{
    JsonValue v = JsonValue::array();
    v.append(c.sizeBytes);
    v.append(c.assoc);
    v.append(c.lineBytes);
    // A removed knob (random replacement) that was always LRU (0);
    // kept so keys do not move.
    v.append(std::uint64_t{0});
    return v;
}

JsonValue
machineContext(const MachineConfig &cfg)
{
    JsonValue v = JsonValue::object();
    v.add("l1i", cacheContext(cfg.hier.l1i));
    v.add("l1d", cacheContext(cfg.hier.l1d));
    v.add("l2", cacheContext(cfg.hier.l2));
    v.add("l1i_hit", cfg.hier.l1iHitLatency);
    v.add("l1d_hit", cfg.hier.l1dHitLatency);
    v.add("l2_hit", cfg.hier.l2HitLatency);
    v.add("mem_latency", cfg.hier.memLatency);
    v.add("bus_cycles_per_line", cfg.hier.busCyclesPerLine);
    v.add("tlb_entries", cfg.hier.tlbEntries);
    v.add("tlb_assoc", cfg.hier.tlbAssoc);
    v.add("tlb_miss_penalty", cfg.hier.tlbMissPenalty);
    // A removed knob that was always off; kept so keys do not move.
    v.add("l2_next_line_prefetch", false);
    v.add("hier_seed", cfg.hier.seed);
    v.add("issue_width", cfg.cpu.issueWidth);
    v.add("retire_width", cfg.cpu.retireWidth);
    v.add("window_size", cfg.cpu.windowSize);
    v.add("mispredict_penalty", cfg.cpu.mispredictPenalty);
    v.add("mshrs", cfg.cpu.mshrs);
    v.add("no_cache_mem_latency", cfg.cpu.noCacheMemLatency);
    v.add("level", static_cast<std::uint64_t>(cfg.level));
    v.add("record_intervals", cfg.recordIntervals);
    // A removed knob that was always on; kept so keys do not move.
    v.add("bp_warming", true);
    // A removed knob (ops per fetched block) that was always 256;
    // kept so keys do not move.
    v.add("block_ops", std::uint64_t{256});
    return v;
}

} // namespace

CellCache::CellCache(store::PageStore &store,
                     std::string code_fingerprint)
    : store_(store), fingerprint_(std::move(code_fingerprint))
{
}

void
CellCache::setWarmProfileHash(const std::string &workload,
                              std::uint64_t hash)
{
    warmProfileHash_[workload] = hash;
}

std::string
CellCache::cellKey(const SweepSpec &spec, const SweepCell &cell,
                   std::size_t trace_capacity) const
{
    // The canonical identity of one cell's simulation: everything
    // runCell() reads, nothing it doesn't (labels, sweep name and
    // the smoke flag are presentation-only and deliberately
    // absent). Doubles rely on the emitter's shortest-round-trip
    // guarantee for canonical bytes.
    JsonValue ctx = JsonValue::object();
    ctx.add("schema", cellSchema);
    ctx.add("store_version", store::storeVersion);
    ctx.add("fingerprint", fingerprint_);
    ctx.add("trace_capacity",
            static_cast<std::uint64_t>(trace_capacity));
    ctx.add("scale", spec.scale);
    ctx.add("workload", cell.workload);
    ctx.add("mode", static_cast<std::uint64_t>(cell.mode));
    ctx.add("l2_bytes", cell.l2Bytes);
    ctx.add("seed_index", cell.seedIndex);
    ctx.add("seed", cell.seed);
    ctx.add("machine", machineContext(spec.baseConfig));
    if (needsPredictor(cell.mode)) {
        ctx.add("predictor_index",
                static_cast<std::uint64_t>(cell.predictorIndex));
        ctx.add("predictor",
                predictorContext(
                    spec.predictors[cell.predictorIndex].params));
        ctx.add("pollution_index",
                static_cast<std::uint64_t>(cell.pollutionIndex));
        ctx.add("pollution",
                static_cast<std::uint64_t>(
                    spec.pollution[cell.pollutionIndex]));
        auto it = warmProfileHash_.find(cell.workload);
        if (it != warmProfileHash_.end())
            ctx.add("warm_profile_hash", it->second);
    }
    // Sampling knobs join the identity only for sampled cells, so
    // every pre-sampling key (and cached value) stays valid.
    if (isSampledMode(cell.mode)) {
        JsonValue s = JsonValue::object();
        s.add("interval_len", spec.sample.intervalLen);
        s.add("strata", spec.sample.strata);
        s.add("rate", spec.sample.rate);
        s.add("allocation",
              static_cast<std::uint64_t>(spec.sample.allocation));
        ctx.add("sample", std::move(s));
    }
    return StableHash().str(ctx.dump(-1)).hex();
}

std::vector<std::string>
CellCache::cellKeys(const SweepSpec &spec,
                    std::size_t trace_capacity) const
{
    std::vector<std::string> keys;
    for (const SweepCell &cell : expandSweep(spec))
        keys.push_back(cellKey(spec, cell, trace_capacity));
    return keys;
}

std::string
CellCache::storeKey(const std::string &cell_key) const
{
    std::string k(cellPrefix);
    k += fingerprint_;
    k += '/';
    k += cell_key;
    return k;
}

std::optional<CellResult>
CellCache::fetch(const std::string &cell_key,
                 const SweepCell &cell, bool claim_aware)
{
    auto &hits = registry_.counter("cell_cache", "hits");
    auto &misses = registry_.counter("cell_cache", "misses");

    std::optional<std::string> value;
    std::optional<store::ClaimRecord> claim;
    {
        store::ReadTx read = store_.beginRead();
        value = read.get(storeKey(cell_key));
        if (!value && claim_aware)
            claim = store::ClaimTable(fingerprint_)
                        .get(read, cell_key);
    }
    if (!value) {
        // Assembly replays exhausted failures from the claim table:
        // workers never cache a failed result, but the final
        // document must mark the cell failed exactly as a
        // single-process run would have.
        if (claim && claim->state == store::ClaimState::Failed) {
            CellResult failed;
            failed.cell = cell;
            failed.failed = true;
            failed.error = claim->error;
            registry_.counter("cell_cache", "failed_replays").inc();
            return failed;
        }
        misses.inc();
        return std::nullopt;
    }
    registry_.counter("cell_cache", "bytes_read")
        .inc(value->size());
    std::optional<CellResult> result = decodeCellResult(*value);
    // Coordinate cross-check: a decode failure or a hash collision
    // (a value recorded for a different cell) degrades to a miss.
    if (!result || result->failed ||
        result->cell.workload != cell.workload ||
        result->cell.mode != cell.mode ||
        result->cell.predictorIndex != cell.predictorIndex ||
        result->cell.pollutionIndex != cell.pollutionIndex ||
        result->cell.l2Bytes != cell.l2Bytes ||
        result->cell.seedIndex != cell.seedIndex ||
        result->cell.seed != cell.seed) {
        misses.inc();
        return std::nullopt;
    }
    // The stored index is from the recording sweep's expansion;
    // the current spec may order cells differently.
    result->cell.index = cell.index;
    hits.inc();
    return result;
}

void
CellCache::noteMisses(std::uint64_t n)
{
    registry_.counter("cell_cache", "misses").inc(n);
}

void
CellCache::commitResults(
    const std::vector<std::pair<std::string, const CellResult *>>
        &items)
{
    // One pass, one transaction: stale-fingerprint eviction and
    // this sweep's inserts commit (or fail) together. The claim
    // keyspaces age out with the cells they coordinated.
    std::vector<std::string> stale;
    {
        // A key is live when it starts with its family's live
        // prefix. Older builds wrote claimhb/ counters and fleet/
        // worker telemetry; nothing writes either any more, and
        // claimhb/ has no live prefix, so every such key is shed.
        struct Family
        {
            std::string prefix, live;
        };
        const Family families[] = {
            {std::string(cellPrefix),
             std::string(cellPrefix) + fingerprint_ + "/"},
            {"claim/", "claim/" + fingerprint_ + "/"},
            {"claimhb/", ""},
            {"fleet/", "fleet/" + fingerprint_ + "/"},
        };
        store::ReadTx read = store_.beginRead();
        for (const Family &family : families) {
            read.scan(family.prefix, [&](std::string_view k,
                                         std::string_view) {
                bool is_live =
                    !family.live.empty() &&
                    k.compare(0, family.live.size(), family.live) ==
                        0;
                if (!is_live)
                    stale.emplace_back(k);
                return true;
            });
        }
    }

    std::uint64_t bytes = 0;
    store::WriteTx tx = store_.beginWrite();
    for (const std::string &k : stale)
        tx.erase(k);
    std::uint64_t inserts = 0;
    for (const auto &[cell_key, result] : items) {
        std::string value = encodeCellResult(*result);
        bytes += value.size();
        tx.put(storeKey(cell_key), value);
        ++inserts;
    }
    tx.commit();

    registry_.counter("cell_cache", "inserts").inc(inserts);
    registry_.counter("cell_cache", "evictions")
        .inc(stale.size());
    registry_.counter("cell_cache", "bytes_written").inc(bytes);
}

JsonValue
CellCache::statsToJson()
{
    JsonValue doc = JsonValue::object();
    doc.add("schema", "ospredict-store-stats-v1");
    doc.add("fingerprint", fingerprint_);

    // Fixed field order; untouched counters read as zero, so the
    // document shape never depends on which events occurred.
    obs::MetricsSnapshot snap = registry_.snapshot();
    JsonValue counters = JsonValue::object();
    for (const char *name :
         {"hits", "misses", "failed_replays", "inserts",
          "evictions", "bytes_read", "bytes_written"})
        counters.add(name, snap.counterValue("cell_cache", name));
    doc.add("cache", std::move(counters));

    store::StoreInfo info = store_.info();
    store::StoreProfile prof = store_.profile();
    JsonValue s = JsonValue::object();
    s.add("page_size", info.pageSize);
    s.add("txid", info.txid);
    s.add("num_pages", info.numPages);
    s.add("free_pages", info.freePages);
    s.add("pending_pages", info.pendingPages);
    s.add("leaf_pages", info.leafPages);
    s.add("root_run_pages", info.rootRunPages);
    s.add("keys", info.keys);
    s.add("file_bytes", info.fileBytes);
    // Self-profiling totals: how long this handle actually spent
    // blocked on the writer gate and committing (lockWaitMs only
    // bounds the former; these record it).
    s.add("lock_wait_us_total", prof.lockWaitUsTotal);
    s.add("lock_acquisitions", prof.lockAcquisitions);
    s.add("commit_count", prof.commitCount);
    s.add("commit_us_total", prof.commitUsTotal);
    s.add("pages_written_total", prof.pagesWrittenTotal);
    doc.add("store", std::move(s));
    return doc;
}

} // namespace osp
