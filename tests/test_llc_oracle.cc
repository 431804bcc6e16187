/**
 * @file
 * Differential tests of the LLC emulation against an obviously-correct
 * reference: a list-based true-LRU cache (most recent first per set)
 * wrapped in a board model with the same address filter, slice
 * interleave, per-core rows and control-block windows as Dragonhead.
 *
 * The fast slice store must agree with the reference on every
 * CacheStats counter, every per-core row and every CB sample, for
 * random and adversarial streams, across associativities and both
 * partitionings. So must the NestedLlc pass, against one reference
 * board per capacity of a nested size sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "base/bitops.hh"
#include "base/random.hh"
#include "base/units.hh"
#include "core/experiment.hh"
#include "dragonhead/dragonhead.hh"
#include "dragonhead/nested_llc.hh"
#include "mem/address_space.hh"

namespace cosim {
namespace {

/** Reference LRU cache: per set, a list of lines, most recent first. */
class OracleCache
{
  public:
    explicit OracleCache(const CacheParams& p)
        : lineBits_(floorLog2(p.lineSize)), assoc_(p.assoc),
          sets_(p.sets())
    {}

    bool
    access(Addr addr, bool write)
    {
        const Addr line = addr >> lineBits_;
        std::list<Line>& set = sets_[line % sets_.size()];
        ++stats.accesses;
        ++(write ? stats.writes : stats.reads);
        auto it = std::find_if(set.begin(), set.end(),
                               [&](const Line& l) { return l.addr == line; });
        if (it != set.end()) {
            Line hit{line, it->dirty || write};
            set.erase(it);
            set.push_front(hit);
            return true;
        }
        ++stats.misses;
        ++(write ? stats.writeMisses : stats.readMisses);
        if (set.size() == assoc_) {
            ++stats.evictions;
            if (set.back().dirty)
                ++stats.writebacks;
            set.pop_back();
        }
        set.push_front(Line{line, write});
        return false;
    }

    CacheStats stats;

  private:
    struct Line
    {
        Addr addr;
        bool dirty;
    };

    unsigned lineBits_;
    std::size_t assoc_;
    std::vector<std::list<Line>> sets_;
};

/** Reference board: AF window and core tracking, slicing, CB windows. */
class OracleBoard
{
  public:
    explicit OracleBoard(const DragonheadParams& p) : p_(p) { reset(); }

    void
    reset()
    {
        CacheParams slice = p_.llc;
        slice.size /= p_.nSlices;
        slices_.assign(p_.nSlices, OracleCache(slice));
        rows_.assign(p_.nSlices,
                     std::vector<CoreCounters>(p_.maxCores));
        samples.clear();
        emulating_ = false;
        core_ = 0;
        insts_ = cycles_ = 0;
        mark_ = Sample();
    }

    void
    observe(const BusTransaction& txn)
    {
        if (txn.kind == TxnKind::Message || msg::isMessageAddr(txn.addr)) {
            message(msg::decode(txn.addr));
            return;
        }
        if (!emulating_)
            return;
        const unsigned line_bits = floorLog2(p_.llc.lineSize);
        const unsigned slice_bits = floorLog2(p_.nSlices);
        unsigned s = core_ % p_.nSlices;
        Addr addr = txn.addr;
        if (p_.partitioning == LlcPartitioning::Interleaved) {
            const Addr line = txn.addr >> line_bits;
            s = static_cast<unsigned>(line % p_.nSlices);
            addr = (line >> slice_bits) << line_bits;
        }
        const bool hit =
            slices_[s].access(addr, txn.kind == TxnKind::WriteLine);
        if (core_ < p_.maxCores) {
            ++rows_[s][core_].accesses;
            rows_[s][core_].misses += hit ? 0 : 1;
        }
    }

    const CacheStats& stats(unsigned s) const { return slices_[s].stats; }
    const CoreCounters& row(unsigned s, CoreId c) const
    {
        return rows_[s][c];
    }

    std::vector<Sample> samples;

  private:
    void
    totals(std::uint64_t& acc, std::uint64_t& mis) const
    {
        acc = mis = 0;
        for (const OracleCache& c : slices_) {
            acc += c.stats.accesses;
            mis += c.stats.misses;
        }
    }

    /** Close the window [mark_, now) as one sample of @p cycles. */
    void
    emit(Cycles cycles)
    {
        Sample s;
        totals(s.accesses, s.misses);
        s.accesses -= mark_.accesses;
        s.misses -= mark_.misses;
        s.insts = insts_ - mark_.insts;
        s.cycles = cycles;
        samples.push_back(s);
        totals(mark_.accesses, mark_.misses);
        mark_.insts = insts_;
    }

    void
    message(const msg::Message& m)
    {
        const Cycles window = static_cast<Cycles>(
            static_cast<double>(p_.cb.samplePeriodUs) * 1000.0 *
            p_.cb.coreFreqGhz);
        switch (m.type) {
          case msg::Type::StartEmulation:
            emulating_ = true;
            mark_.cycles = cycles_;
            mark_.insts = insts_;
            totals(mark_.accesses, mark_.misses);
            break;
          case msg::Type::StopEmulation: {
            emulating_ = false;
            std::uint64_t acc = 0;
            std::uint64_t mis = 0;
            totals(acc, mis);
            const Cycles partial = cycles_ - mark_.cycles;
            if (partial != 0 || insts_ != mark_.insts ||
                acc != mark_.accesses)
                emit(partial);
            mark_.cycles = cycles_;
            break;
          }
          case msg::Type::SetCoreId:
            core_ = static_cast<CoreId>(m.payload);
            break;
          case msg::Type::InstRetired:
            insts_ += m.payload;
            break;
          case msg::Type::CyclesCompleted:
            cycles_ += m.payload;
            while (cycles_ - mark_.cycles >= window) {
                mark_.cycles += window;
                emit(window);
            }
            break;
        }
    }

    DragonheadParams p_;
    std::vector<OracleCache> slices_;
    std::vector<std::vector<CoreCounters>> rows_;
    bool emulating_ = false;
    CoreId core_ = 0;
    InstCount insts_ = 0;
    Cycles cycles_ = 0;
    /** Counter values at the last window boundary. */
    Sample mark_;
};

// ----------------------------------------------------------- comparing

void
expectSameStats(const CacheStats& a, const CacheStats& b,
                const std::string& where)
{
    EXPECT_EQ(a.accesses, b.accesses) << where;
    EXPECT_EQ(a.reads, b.reads) << where;
    EXPECT_EQ(a.writes, b.writes) << where;
    EXPECT_EQ(a.misses, b.misses) << where;
    EXPECT_EQ(a.readMisses, b.readMisses) << where;
    EXPECT_EQ(a.writeMisses, b.writeMisses) << where;
    EXPECT_EQ(a.evictions, b.evictions) << where;
    EXPECT_EQ(a.writebacks, b.writebacks) << where;
    EXPECT_EQ(a.prefetchFills, b.prefetchFills) << where;
    EXPECT_EQ(a.usefulPrefetches, b.usefulPrefetches) << where;
}

void
expectSameSamples(const std::vector<Sample>& a, const std::vector<Sample>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].accesses, b[i].accesses) << "sample " << i;
        EXPECT_EQ(a[i].misses, b[i].misses) << "sample " << i;
        EXPECT_EQ(a[i].insts, b[i].insts) << "sample " << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << "sample " << i;
    }
}

void
expectMatchesOracle(const LlcView& dh, const OracleBoard& ref)
{
    const DragonheadParams& p = dh.params();
    for (unsigned s = 0; s < dh.nSlices(); ++s) {
        const std::string where = "slice " + std::to_string(s);
        expectSameStats(dh.sliceStats(s), ref.stats(s), where);
        for (CoreId c = 0; c < p.maxCores; ++c) {
            EXPECT_EQ(dh.sliceCoreCounters(s, c).accesses,
                      ref.row(s, c).accesses)
                << where << " core " << c;
            EXPECT_EQ(dh.sliceCoreCounters(s, c).misses,
                      ref.row(s, c).misses)
                << where << " core " << c;
        }
    }
    expectSameSamples(dh.samples(), ref.samples);
}

/** Identity of two emulations fed the same stream by different paths. */
void
expectSameBoard(const LlcView& a, const LlcView& b)
{
    for (unsigned s = 0; s < a.nSlices(); ++s) {
        expectSameStats(a.sliceStats(s), b.sliceStats(s),
                        "slice " + std::to_string(s));
        for (CoreId c = 0; c < a.params().maxCores; ++c) {
            EXPECT_EQ(a.sliceCoreCounters(s, c).accesses,
                      b.sliceCoreCounters(s, c).accesses);
            EXPECT_EQ(a.sliceCoreCounters(s, c).misses,
                      b.sliceCoreCounters(s, c).misses);
        }
    }
    expectSameSamples(a.samples(), b.samples());
}

// ------------------------------------------------------------- streams

DragonheadParams
board(std::uint32_t assoc, LlcPartitioning part, std::uint64_t size = 64 * KiB,
      std::uint32_t line = 64)
{
    DragonheadParams p;
    p.llc = {"llc", size, line, assoc, ReplPolicy::LRU};
    p.nSlices = 4;
    p.partitioning = part;
    p.maxCores = 6;
    p.cb.samplePeriodUs = 1;
    p.cb.coreFreqGhz = 1.0; // 1000 cycles per CB window
    return p;
}

BusTransaction
demand(Addr a, bool write)
{
    BusTransaction txn;
    txn.addr = a;
    txn.size = 64;
    txn.kind = write ? TxnKind::WriteLine : TxnKind::ReadLine;
    return txn;
}

/**
 * A guest-like stream: data traffic over @p span bytes from the
 * workload base, with core switches (including one core past the
 * counter rows), instruction/cycle messages and window stops.
 */
std::vector<BusTransaction>
randomStream(std::uint64_t seed, std::size_t n, std::uint64_t span,
             double write_frac)
{
    Rng rng(seed);
    std::vector<BusTransaction> out;
    out.push_back(msg::encode(msg::Type::StartEmulation, 0));
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t r = rng.nextBounded(1000);
        if (r < 10) {
            out.push_back(
                msg::encode(msg::Type::SetCoreId, rng.nextBounded(7)));
        } else if (r < 40) {
            out.push_back(msg::encode(msg::Type::InstRetired,
                                      1 + rng.nextBounded(300)));
            out.push_back(msg::encode(msg::Type::CyclesCompleted,
                                      1 + rng.nextBounded(500)));
        } else if (r < 41) {
            // A stop/start gap: traffic inside it is dropped.
            out.push_back(msg::encode(msg::Type::StopEmulation, 0));
            out.push_back(demand(SimAllocator::workloadBase, true));
            out.push_back(msg::encode(msg::Type::StartEmulation, 0));
        } else {
            const Addr a = SimAllocator::workloadBase +
                           rng.nextBounded(span);
            out.push_back(demand(a, rng.nextBool(write_frac)));
        }
    }
    out.push_back(msg::encode(msg::Type::StopEmulation, 0));
    return out;
}

/** Cycle assoc+1 lines that collide in one set of one slice. */
std::vector<BusTransaction>
thrashStream(const DragonheadParams& p, std::size_t rounds)
{
    // A stride of one whole LLC maps every line to the same set of the
    // same slice under both partitionings (core 0 throughout).
    const Addr stride = p.llc.size;
    std::vector<BusTransaction> out;
    out.push_back(msg::encode(msg::Type::StartEmulation, 0));
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::uint32_t k = 0; k <= p.llc.assoc; ++k) {
            out.push_back(demand(SimAllocator::workloadBase + k * stride,
                                 (r + k) % 3 == 0));
        }
        out.push_back(msg::encode(msg::Type::InstRetired, 100));
        out.push_back(msg::encode(msg::Type::CyclesCompleted, 400));
    }
    out.push_back(msg::encode(msg::Type::StopEmulation, 0));
    return out;
}

void
runBoth(Dragonhead& dh, OracleBoard& ref,
        const std::vector<BusTransaction>& txns)
{
    for (const BusTransaction& t : txns) {
        dh.observe(t);
        ref.observe(t);
    }
}

// --------------------------------------------------------------- tests

const std::uint32_t kAssocs[] = {1, 2, 4, 8, 16};
const LlcPartitioning kParts[] = {LlcPartitioning::Interleaved,
                                  LlcPartitioning::PerCore};

TEST(LlcOracle, CacheControllerMatchesReferenceLru)
{
    for (std::uint32_t assoc : kAssocs) {
        CacheParams slice{"cc0", 16 * KiB, 64, assoc, ReplPolicy::LRU};
        CacheController cc(0, slice, 4);
        OracleCache ref(slice);
        std::vector<CoreCounters> rows(4);
        Rng rng(1000 + assoc);
        for (int i = 0; i < 60000; ++i) {
            const Addr a = SimAllocator::workloadBase +
                           rng.nextBounded(64 * KiB);
            const bool w = rng.nextBool(0.3);
            const CoreId core = static_cast<CoreId>(rng.nextBounded(5));
            const bool hit = ref.access(a, w);
            ASSERT_EQ(cc.handleDemand(a, w, core), hit)
                << "assoc " << assoc << " access " << i;
            if (core < rows.size()) {
                ++rows[core].accesses;
                rows[core].misses += hit ? 0 : 1;
            }
        }
        expectSameStats(cc.stats(), ref.stats,
                        "assoc " + std::to_string(assoc));
        for (CoreId c = 0; c < rows.size(); ++c) {
            EXPECT_EQ(cc.coreCounters(c).accesses, rows[c].accesses);
            EXPECT_EQ(cc.coreCounters(c).misses, rows[c].misses);
        }
    }
}

TEST(LlcOracle, RandomStreamsEveryAssocAndPartitioning)
{
    for (LlcPartitioning part : kParts) {
        for (std::uint32_t assoc : kAssocs) {
            SCOPED_TRACE("assoc " + std::to_string(assoc) +
                         (part == LlcPartitioning::PerCore ? " per-core"
                                                           : " shared"));
            DragonheadParams p = board(assoc, part);
            Dragonhead dh(p);
            OracleBoard ref(p);
            runBoth(dh, ref, randomStream(7 * assoc, 50000, 256 * KiB, 0.2));
            expectMatchesOracle(dh, ref);
            EXPECT_GT(dh.results().misses, 0u);
            EXPECT_LT(dh.results().misses, dh.results().accesses);
        }
    }
}

TEST(LlcOracle, SingleSetThrashMissesEveryTime)
{
    for (LlcPartitioning part : kParts) {
        for (std::uint32_t assoc : kAssocs) {
            SCOPED_TRACE("assoc " + std::to_string(assoc));
            DragonheadParams p = board(assoc, part);
            Dragonhead dh(p);
            OracleBoard ref(p);
            runBoth(dh, ref, thrashStream(p, 200));
            expectMatchesOracle(dh, ref);
            // LRU with assoc+1 lines cycling through one set never hits.
            EXPECT_EQ(dh.results().misses, dh.results().accesses);
        }
    }
}

TEST(LlcOracle, WriteHeavyDirtyEvictions)
{
    for (LlcPartitioning part : kParts) {
        for (std::uint32_t assoc : kAssocs) {
            SCOPED_TRACE("assoc " + std::to_string(assoc));
            DragonheadParams p = board(assoc, part, 16 * KiB);
            Dragonhead dh(p);
            OracleBoard ref(p);
            runBoth(dh, ref, randomStream(99 + assoc, 40000, 128 * KiB, 0.9));
            expectMatchesOracle(dh, ref);
            std::uint64_t writebacks = 0;
            for (unsigned s = 0; s < dh.nSlices(); ++s)
                writebacks += dh.slice(s).stats().writebacks;
            EXPECT_GT(writebacks, 0u);
        }
    }
}

TEST(LlcOracle, ResetMidStreamStartsCold)
{
    for (LlcPartitioning part : kParts) {
        DragonheadParams p = board(8, part);
        Dragonhead dh(p);
        OracleBoard ref(p);
        runBoth(dh, ref, randomStream(5, 20000, 96 * KiB, 0.3));
        dh.reset();
        ref.reset();
        // The second stream re-touches the same span: a stale line
        // surviving reset() would turn a cold miss into a hit.
        runBoth(dh, ref, randomStream(5, 20000, 96 * KiB, 0.3));
        expectMatchesOracle(dh, ref);
    }
}

TEST(LlcOracle, WideLinesAndFewSets)
{
    // fig7's geometry family: few sets, wide lines.
    for (std::uint32_t line : {256u, 4096u}) {
        DragonheadParams p = board(16, LlcPartitioning::Interleaved,
                                   1 * MiB, line);
        Dragonhead dh(p);
        OracleBoard ref(p);
        runBoth(dh, ref, randomStream(line, 30000, 8 * MiB, 0.25));
        expectMatchesOracle(dh, ref);
    }
}

TEST(LlcOracle, ObserveBatchEqualsObserve)
{
    for (LlcPartitioning part : kParts) {
        DragonheadParams p = board(16, part);
        Dragonhead one(p);
        Dragonhead batched(p);
        const std::vector<BusTransaction> txns =
            randomStream(31, 60000, 512 * KiB, 0.25);
        for (const BusTransaction& t : txns)
            one.observe(t);
        // Ragged chunks, including empty and single-transaction ones.
        Rng rng(17);
        std::size_t i = 0;
        while (i < txns.size()) {
            const std::size_t n =
                std::min<std::size_t>(rng.nextBounded(5000),
                                      txns.size() - i);
            batched.observeBatch(txns.data() + i, n);
            i += n;
        }
        expectSameBoard(one, batched);
        EXPECT_EQ(one.results().misses, batched.results().misses);
    }
}

// ------------------------------------------------- the nested pass

/** A seven-capacity sweep (8-512 KiB), the shape of fig4-6's. */
std::vector<DragonheadParams>
nestedSweep(std::uint32_t assoc)
{
    std::vector<DragonheadParams> out;
    for (std::uint64_t size = 8 * KiB; size <= 512 * KiB; size *= 2)
        out.push_back(board(assoc, LlcPartitioning::Interleaved, size));
    // Out of size order: views follow the configuration order.
    std::swap(out[1], out[5]);
    return out;
}

/** A NestedLlc plus one reference board per capacity. */
struct NestedRig
{
    explicit NestedRig(const std::vector<DragonheadParams>& configs)
        : pass(configs)
    {
        for (const DragonheadParams& p : configs)
            refs.emplace_back(p);
    }

    void
    run(const std::vector<BusTransaction>& txns)
    {
        for (const BusTransaction& t : txns) {
            pass.observe(t);
            for (OracleBoard& r : refs)
                r.observe(t);
        }
    }

    void
    reset()
    {
        pass.reset();
        for (OracleBoard& r : refs)
            r.reset();
    }

    void
    expectMatches() const
    {
        ASSERT_EQ(pass.nConfigs(), refs.size());
        for (unsigned i = 0; i < refs.size(); ++i) {
            SCOPED_TRACE("capacity " +
                         std::to_string(pass.config(i).params().llc.size));
            expectMatchesOracle(pass.config(i), refs[i]);
        }
    }

    /** Misses summed over the capacities. */
    std::uint64_t
    misses() const
    {
        std::uint64_t n = 0;
        for (unsigned i = 0; i < pass.nConfigs(); ++i)
            n += pass.config(i).results().misses;
        return n;
    }

    NestedLlc pass;
    std::vector<OracleBoard> refs;
};

/** Sweep @p span bytes line by line, @p rounds times (core 0). */
std::vector<BusTransaction>
streamingStream(std::uint64_t span, unsigned rounds, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BusTransaction> out;
    out.push_back(msg::encode(msg::Type::StartEmulation, 0));
    for (unsigned r = 0; r < rounds; ++r) {
        for (Addr a = 0; a < span; a += 64) {
            out.push_back(demand(SimAllocator::workloadBase + a,
                                 rng.nextBool(0.3)));
            if (a % 4096 == 0) {
                out.push_back(msg::encode(msg::Type::InstRetired, 200));
                out.push_back(msg::encode(msg::Type::CyclesCompleted, 300));
            }
        }
    }
    out.push_back(msg::encode(msg::Type::StopEmulation, 0));
    return out;
}

/**
 * Hits at every capacity: a hot set that fits the smallest, warm sets
 * that fit the middle ones, and a cold span that fits none, with core
 * switches and CB traffic from randomStream's mix.
 */
std::vector<BusTransaction>
mixedLevelStream(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<BusTransaction> out =
        randomStream(seed, n / 4, 2 * MiB, 0.3);
    out.pop_back(); // keep the window open
    const std::uint64_t spans[] = {6 * KiB, 24 * KiB, 96 * KiB,
                                   384 * KiB, 4 * MiB};
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t r = rng.nextBounded(100);
        const std::uint64_t span = r < 40   ? spans[0]
                                   : r < 60 ? spans[1]
                                   : r < 75 ? spans[2]
                                   : r < 90 ? spans[3]
                                            : spans[4];
        if (r == 99) {
            out.push_back(
                msg::encode(msg::Type::SetCoreId, rng.nextBounded(7)));
            out.push_back(msg::encode(msg::Type::CyclesCompleted, 700));
        }
        out.push_back(demand(SimAllocator::workloadBase +
                                 rng.nextBounded(span),
                             rng.nextBool(0.35)));
    }
    out.push_back(msg::encode(msg::Type::StopEmulation, 0));
    return out;
}

TEST(NestedLlcOracle, RandomStreamsMatchSevenBoards)
{
    for (std::uint32_t assoc : {1u, 4u, 16u}) {
        SCOPED_TRACE("assoc " + std::to_string(assoc));
        NestedRig rig(nestedSweep(assoc));
        rig.run(randomStream(3 * assoc, 60000, 768 * KiB, 0.25));
        rig.expectMatches();
        EXPECT_GT(rig.misses(), 0u);
    }
}

TEST(NestedLlcOracle, ThrashMissesEverywhere)
{
    for (std::uint32_t assoc : {2u, 16u}) {
        SCOPED_TRACE("assoc " + std::to_string(assoc));
        const std::vector<DragonheadParams> configs = nestedSweep(assoc);
        NestedRig rig(configs);
        // A stride of the largest capacity collides at every capacity.
        DragonheadParams largest = configs.front();
        for (const DragonheadParams& p : configs)
            largest = p.llc.size > largest.llc.size ? p : largest;
        rig.run(thrashStream(largest, 300));
        rig.expectMatches();
        for (unsigned i = 0; i < rig.pass.nConfigs(); ++i) {
            const LlcResults r = rig.pass.config(i).results();
            EXPECT_EQ(r.misses, r.accesses);
        }
    }
}

TEST(NestedLlcOracle, WriteHeavyDirtyEvictions)
{
    for (std::uint32_t assoc : {4u, 16u}) {
        SCOPED_TRACE("assoc " + std::to_string(assoc));
        NestedRig rig(nestedSweep(assoc));
        rig.run(randomStream(41 + assoc, 60000, 1 * MiB, 0.9));
        rig.expectMatches();
        std::uint64_t writebacks = 0;
        for (unsigned i = 0; i < rig.pass.nConfigs(); ++i)
            for (unsigned s = 0; s < 4; ++s)
                writebacks += rig.pass.config(i).sliceStats(s).writebacks;
        EXPECT_GT(writebacks, 0u);
    }
}

TEST(NestedLlcOracle, StreamingMissesAtEverySize)
{
    // A 1 MiB sweep misses at every capacity up to 512 KiB, every round.
    NestedRig rig(nestedSweep(16));
    rig.run(streamingStream(1 * MiB, 4, 9));
    rig.expectMatches();
    for (unsigned i = 0; i < rig.pass.nConfigs(); ++i) {
        const LlcResults r = rig.pass.config(i).results();
        EXPECT_EQ(r.misses, r.accesses);
    }
}

TEST(NestedLlcOracle, MixedHitLevels)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        NestedRig rig(nestedSweep(16));
        rig.run(mixedLevelStream(seed, 150000));
        rig.expectMatches();
        // Every capacity misses less than the one below it.
        std::vector<std::uint64_t> by_size;
        for (const OracleBoard& ref : rig.refs) {
            std::uint64_t m = 0;
            for (unsigned s = 0; s < 4; ++s)
                m += ref.stats(s).misses;
            by_size.push_back(m);
        }
        EXPECT_GT(by_size[0], by_size[1]); // 8 KiB vs 256 KiB (swapped)
    }
}

TEST(NestedLlcOracle, ResetMidStreamStartsCold)
{
    NestedRig rig(nestedSweep(8));
    rig.run(mixedLevelStream(5, 40000));
    rig.reset();
    rig.run(mixedLevelStream(5, 40000));
    rig.expectMatches();
}

TEST(NestedLlcOracle, RenumberingStampsKeepsResults)
{
    NestedRig rig(nestedSweep(16));
    const std::vector<BusTransaction> txns = mixedLevelStream(11, 120000);
    const std::size_t step = txns.size() / 5;
    for (std::size_t i = 0; i < txns.size(); i += step) {
        const std::size_t end = std::min(txns.size(), i + step);
        rig.run({txns.begin() + static_cast<std::ptrdiff_t>(i),
                 txns.begin() + static_cast<std::ptrdiff_t>(end)});
        rig.pass.renumberStamps();
    }
    rig.expectMatches();
}

TEST(NestedLlcOracle, ObserveBatchEqualsObserve)
{
    const std::vector<DragonheadParams> configs = nestedSweep(16);
    NestedLlc one(configs);
    NestedLlc batched(configs);
    const std::vector<BusTransaction> txns = mixedLevelStream(23, 100000);
    for (const BusTransaction& t : txns)
        one.observe(t);
    Rng rng(29);
    std::size_t i = 0;
    while (i < txns.size()) {
        const std::size_t n =
            std::min<std::size_t>(rng.nextBounded(5000), txns.size() - i);
        batched.observeBatch(txns.data() + i, n);
        i += n;
    }
    for (unsigned c = 0; c < configs.size(); ++c)
        expectSameBoard(one.config(c), batched.config(c));
}

TEST(NestedLlcSelection, OnlyNestingSetsGetThePass)
{
    EXPECT_TRUE(NestedLlc::nests(presets::llcSizeSweepEmulators()));
    EXPECT_TRUE(NestedLlc::nests(nestedSweep(4)));
    // fig7's line sizes do not nest.
    EXPECT_FALSE(NestedLlc::nests(presets::lineSizeSweepEmulators()));
    // A lone configuration, and duplicate capacities.
    EXPECT_FALSE(NestedLlc::nests({nestedSweep(4).front()}));
    EXPECT_FALSE(
        NestedLlc::nests({nestedSweep(4).front(), nestedSweep(4).front()}));

    auto changed = [](auto edit) {
        std::vector<DragonheadParams> configs = nestedSweep(4);
        edit(configs.back());
        return NestedLlc::nests(configs);
    };
    EXPECT_FALSE(changed([](DragonheadParams& p) {
        p.partitioning = LlcPartitioning::PerCore;
    }));
    EXPECT_FALSE(changed([](DragonheadParams& p) { p.llc.assoc = 8; }));
    EXPECT_FALSE(changed([](DragonheadParams& p) { p.nSlices = 2; }));
    EXPECT_FALSE(changed([](DragonheadParams& p) { p.maxCores = 8; }));
    EXPECT_FALSE(
        changed([](DragonheadParams& p) { p.cb.samplePeriodUs = 2; }));
    EXPECT_FALSE(
        changed([](DragonheadParams& p) { p.llc.repl = ReplPolicy::FIFO; }));

    // makeLlcEmulators: one pass for fig4-6, a board per fig7 config.
    auto sizes = makeLlcEmulators(presets::llcSizeSweepEmulators());
    ASSERT_EQ(sizes.size(), 1u);
    EXPECT_NE(dynamic_cast<NestedLlc*>(sizes[0].get()), nullptr);
    EXPECT_EQ(sizes[0]->nConfigs(), 7u);
    auto lines = makeLlcEmulators(presets::lineSizeSweepEmulators());
    ASSERT_EQ(lines.size(), 7u);
    for (const auto& unit : lines)
        EXPECT_NE(dynamic_cast<Dragonhead*>(unit.get()), nullptr);
    std::vector<DragonheadParams> per_core = nestedSweep(4);
    for (DragonheadParams& p : per_core)
        p.partitioning = LlcPartitioning::PerCore;
    EXPECT_EQ(makeLlcEmulators(per_core).size(), per_core.size());
}

TEST(LlcOracleDeathTest, TagWiderThan32BitsPanics)
{
    // 64 sets of 64 B lines: tag = addr >> 12, so 2^44 is the first
    // address whose tag needs a 33rd bit.
    CacheParams slice{"cc0", 16 * KiB, 64, 4, ReplPolicy::LRU};
    CacheController cc(0, slice, 1);
    EXPECT_FALSE(cc.handleDemand((Addr{1} << 44) - 64, false, 0));
    EXPECT_TRUE(cc.handleDemand((Addr{1} << 44) - 64, false, 0));
    EXPECT_DEATH(cc.handleDemand(Addr{1} << 44, false, 0),
                 "wider than 32 bits");
}

} // namespace
} // namespace cosim
