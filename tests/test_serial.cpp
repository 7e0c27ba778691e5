// Serialization-layer tests: archive framing and corruption rejection,
// per-component save/load round trips with canonical-bytes checks
// (save -> load -> save is byte-identical), fingerprint inclusion/exclusion
// rules, and the end-to-end warm-state snapshot contract — a restored run's
// report is byte-identical (modulo provenance) to a cold run's, for a
// single System and for runPlan's shared-snapshot warm starts at jobs=1
// and jobs=4.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cpt.hpp"
#include "core/naive.hpp"
#include "mem/cache.hpp"
#include "noc/mesh.hpp"
#include "noc/topology.hpp"
#include "rram/fault_model.hpp"
#include "serial/archive.hpp"
#include "serial/checkpointable.hpp"
#include "sim/fingerprint.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "tlb/tlb.hpp"
#include "workload/generator.hpp"
#include "workload/mixes.hpp"

namespace renuca {
namespace {

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- Archive framing -------------------------------------------------------

TEST(Archive, RoundTripsEveryPrimitiveType) {
  const std::string p = tmpPath("prims.ckpt");
  {
    serial::ArchiveWriter w(p);
    w.beginSection("alpha");
    w.putU8(7);
    w.putU32(0xdeadbeefu);
    w.putU64(0x0123456789abcdefull);
    w.putBool(true);
    w.putDouble(3.25);
    w.putString("hello");
    w.endSection();
    w.beginSection("beta");
    w.putU64(42);
    w.endSection();
    ASSERT_TRUE(w.close());
  }
  serial::ArchiveReader r(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.version(), serial::kArchiveVersion);
  ASSERT_EQ(r.sections().size(), 2u);
  EXPECT_EQ(r.sections()[0].name, "alpha");
  EXPECT_TRUE(r.hasSection("beta"));
  EXPECT_FALSE(r.hasSection("gamma"));

  ASSERT_TRUE(r.openSection("alpha"));
  EXPECT_EQ(r.getU8(), 7);
  EXPECT_EQ(r.getU32(), 0xdeadbeefu);
  EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.getBool());
  EXPECT_EQ(r.getDouble(), 3.25);
  EXPECT_EQ(r.getString(), "hello");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.ok());

  // Sections can be opened in any order and re-opened.
  ASSERT_TRUE(r.openSection("beta"));
  EXPECT_EQ(r.getU64(), 42u);
  ASSERT_TRUE(r.openSection("alpha"));
  EXPECT_EQ(r.getU8(), 7);
}

TEST(Archive, MissingFileIsOpenFailed) {
  serial::ArchiveReader r(tmpPath("no-such-file.ckpt"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), serial::ArchiveError::OpenFailed);
}

TEST(Archive, RejectsForeignBytes) {
  const std::string p = tmpPath("foreign.ckpt");
  spit(p, "this is not an archive at all, not even close");
  serial::ArchiveReader r(p);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), serial::ArchiveError::BadMagic);
}

std::string validArchiveBytes() {
  const std::string p = tmpPath("template.ckpt");
  serial::ArchiveWriter w(p);
  w.beginSection("state");
  for (std::uint64_t i = 0; i < 32; ++i) w.putU64(i * 17);
  w.endSection();
  EXPECT_TRUE(w.close());
  return slurp(p);
}

TEST(Archive, RejectsUnsupportedVersion) {
  std::string bytes = validArchiveBytes();
  bytes[8] = 99;  // version field, little-endian low byte
  const std::string p = tmpPath("badver.ckpt");
  spit(p, bytes);
  serial::ArchiveReader r(p);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), serial::ArchiveError::BadVersion);
}

TEST(Archive, RejectsTruncatedFile) {
  std::string bytes = validArchiveBytes();
  const std::string p = tmpPath("trunc.ckpt");
  spit(p, bytes.substr(0, bytes.size() - 10));
  serial::ArchiveReader r(p);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), serial::ArchiveError::TruncatedSection);
}

TEST(Archive, RejectsFlippedPayloadByte) {
  std::string bytes = validArchiveBytes();
  bytes[bytes.size() - 3] ^= 0x40;  // inside the last payload word
  const std::string p = tmpPath("flip.ckpt");
  spit(p, bytes);
  serial::ArchiveReader r(p);
  ASSERT_TRUE(r.ok());  // framing parses; damage surfaces at openSection
  EXPECT_FALSE(r.openSection("state"));
  EXPECT_EQ(r.error(), serial::ArchiveError::ChecksumMismatch);
}

TEST(Archive, OverReadSetsShortReadAndReturnsZero) {
  const std::string p = tmpPath("short.ckpt");
  {
    serial::ArchiveWriter w(p);
    w.beginSection("tiny");
    w.putU8(5);
    w.endSection();
    ASSERT_TRUE(w.close());
  }
  serial::ArchiveReader r(p);
  ASSERT_TRUE(r.openSection("tiny"));
  EXPECT_EQ(r.getU8(), 5);
  EXPECT_EQ(r.getU64(), 0u);  // past the payload
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), serial::ArchiveError::ShortRead);
}

TEST(Archive, MissingSectionIsReported) {
  const std::string p = tmpPath("missing.ckpt");
  spit(p, validArchiveBytes());
  serial::ArchiveReader r(p);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.openSection("absent"));
  EXPECT_EQ(r.error(), serial::ArchiveError::SectionMissing);
}

// --- Pcg32 state -----------------------------------------------------------

TEST(Serial, Pcg32StateRoundTrip) {
  Pcg32 a(123, 456);
  for (int i = 0; i < 100; ++i) a.next();
  Pcg32::State s = a.saveState();
  Pcg32 b;
  b.restoreState(s);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

// --- Component round trips -------------------------------------------------

// Saves one component to a fresh archive file and returns the file bytes.
std::string saveToFile(const std::string& path, const serial::Checkpointable& c) {
  serial::ArchiveWriter w(path);
  serial::saveComponent(w, "c", c);
  EXPECT_TRUE(w.close());
  return slurp(path);
}

bool loadFromFile(const std::string& path, serial::Checkpointable& c) {
  serial::ArchiveReader r(path);
  return serial::loadComponent(r, "c", c);
}

mem::CacheConfig smallBankConfig() {
  mem::CacheConfig cfg;
  cfg.sizeBytes = 8 * 1024;
  cfg.ways = 2;
  cfg.trackFrameWrites = true;
  return cfg;
}

TEST(Serial, CacheBankRoundTripIsCanonical) {
  mem::CacheConfig cfg = smallBankConfig();
  mem::CacheBank a(cfg, "bank-a", 7);
  for (BlockAddr b = 100; b < 400; b += 3) {
    a.insert(b, (b % 2) == 0, (b % 5) == 0);
    a.access(b, (b % 7) == 0 ? AccessType::Write : AccessType::Read);
  }
  const std::string p1 = tmpPath("bank1.ckpt");
  const std::string bytes1 = saveToFile(p1, a);

  mem::CacheBank b(cfg, "bank-b", 99);  // different seed: RNG state restored too
  ASSERT_TRUE(loadFromFile(p1, b));
  EXPECT_EQ(a.validLines(), b.validLines());
  EXPECT_EQ(a.totalWrites(), b.totalWrites());
  EXPECT_EQ(a.frameWrites(), b.frameWrites());
  for (BlockAddr blk = 100; blk < 400; ++blk) {
    EXPECT_EQ(a.contains(blk), b.contains(blk)) << blk;
    EXPECT_EQ(a.lineCritical(blk), b.lineCritical(blk)) << blk;
  }

  const std::string p2 = tmpPath("bank2.ckpt");
  EXPECT_EQ(saveToFile(p2, b), bytes1);  // save -> load -> save byte-identical
}

TEST(Serial, CacheBankRejectsGeometryMismatch) {
  mem::CacheBank a(smallBankConfig(), "bank-a");
  a.insert(1, false);
  const std::string p = tmpPath("bankgeom.ckpt");
  saveToFile(p, a);

  mem::CacheConfig other = smallBankConfig();
  other.ways = 4;  // same size, different shape
  mem::CacheBank b(other, "bank-b");
  EXPECT_FALSE(loadFromFile(p, b));
}

TEST(Serial, TlbAndPageTableRoundTrip) {
  tlb::TlbConfig cfg;
  cfg.entries = 16;
  cfg.ways = 4;
  tlb::PageTable ptA;
  tlb::EnhancedTlb tlbA(cfg, &ptA, 0, "tlb-a");
  for (Addr va = 0; va < 64 * kPageBytes; va += kPageBytes) {
    tlbA.translate(va);
    tlbA.setMappingBit(va + 64, (va / kPageBytes) % 3 == 0);
  }
  const std::string pPt = tmpPath("pt.ckpt");
  const std::string pTlb = tmpPath("tlb.ckpt");
  const std::string ptBytes = saveToFile(pPt, ptA);
  const std::string tlbBytes = saveToFile(pTlb, tlbA);

  tlb::PageTable ptB;
  tlb::EnhancedTlb tlbB(cfg, &ptB, 0, "tlb-b");
  ASSERT_TRUE(loadFromFile(pPt, ptB));
  ASSERT_TRUE(loadFromFile(pTlb, tlbB));

  // Canonical bytes, checked before any mutating lookups below.
  EXPECT_EQ(saveToFile(tmpPath("pt2.ckpt"), ptB), ptBytes);
  EXPECT_EQ(saveToFile(tmpPath("tlb2.ckpt"), tlbB), tlbBytes);

  EXPECT_EQ(ptA.allocatedPages(), ptB.allocatedPages());
  for (Addr va = 0; va < 64 * kPageBytes; va += kPageBytes) {
    std::uint64_t vpn = pageOf(va);
    EXPECT_EQ(ptA.loadMbv(0, vpn), ptB.loadMbv(0, vpn));
    // Translations resolve identically (and reuse the same PPNs).
    EXPECT_EQ(tlbA.translate(va).paddr, tlbB.translate(va).paddr);
  }
  // Reverse map was rebuilt correctly.
  auto owner = ptB.ownerOf(1);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(owner->first, 0u);
}

TEST(Serial, TlbRejectsGeometryMismatch) {
  tlb::TlbConfig cfg;
  cfg.entries = 16;
  cfg.ways = 4;
  tlb::PageTable pt;
  tlb::EnhancedTlb a(cfg, &pt, 0, "tlb-a");
  a.translate(0);
  const std::string p = tmpPath("tlbgeom.ckpt");
  saveToFile(p, a);

  tlb::TlbConfig other = cfg;
  other.entries = 32;
  tlb::EnhancedTlb b(other, &pt, 0, "tlb-b");
  EXPECT_FALSE(loadFromFile(p, b));
}

TEST(Serial, CptRoundTripPreservesFifoOrder) {
  core::CptConfig cfg;
  cfg.capacity = 4;
  core::CriticalityPredictorTable a(cfg);
  for (std::uint64_t pc = 0x400; pc < 0x400 + 6; ++pc) {
    a.train(pc, pc % 2 == 0);  // 6 PCs through a 4-entry table: 2 evictions
    a.train(pc, true);
  }
  ASSERT_EQ(a.size(), 4u);
  const std::string p = tmpPath("cpt.ckpt");
  const std::string bytes = saveToFile(p, a);

  core::CriticalityPredictorTable b(cfg);
  ASSERT_TRUE(loadFromFile(p, b));
  EXPECT_EQ(a.size(), b.size());
  for (std::uint64_t pc = 0x400; pc < 0x400 + 6; ++pc) {
    EXPECT_EQ(a.hasEntry(pc), b.hasEntry(pc));
    EXPECT_EQ(a.countersFor(pc).numLoadsCount, b.countersFor(pc).numLoadsCount);
    EXPECT_EQ(a.countersFor(pc).robBlockCount, b.countersFor(pc).robBlockCount);
  }
  EXPECT_EQ(saveToFile(tmpPath("cpt2.ckpt"), b), bytes);

  // FIFO order survived: the next insertion evicts the same victim.
  a.train(0x999, true);
  b.train(0x999, true);
  for (std::uint64_t pc = 0x400; pc < 0x400 + 6; ++pc) {
    EXPECT_EQ(a.hasEntry(pc), b.hasEntry(pc)) << pc;
  }
}

TEST(Serial, CptRejectsOverCapacitySnapshot) {
  core::CptConfig big;
  big.capacity = 64;
  core::CriticalityPredictorTable a(big);
  for (std::uint64_t pc = 0; pc < 32; ++pc) a.train(0x400 + pc, true);
  const std::string p = tmpPath("cptbig.ckpt");
  saveToFile(p, a);

  core::CptConfig tiny;
  tiny.capacity = 8;
  core::CriticalityPredictorTable b(tiny);
  EXPECT_FALSE(loadFromFile(p, b));
}

TEST(Serial, NaiveDirectoryRoundTrip) {
  std::vector<std::uint64_t> writes(4, 0);
  auto oracle = [&writes](BankId b) { return writes[b]; };
  core::NaivePolicy a(4, oracle);
  for (BlockAddr blk = 0; blk < 100; ++blk) {
    a.onFill(blk, static_cast<BankId>(blk % 4));
  }
  a.onEvict(50, 2);
  const std::string p = tmpPath("naive.ckpt");
  const std::string bytes = saveToFile(p, a);

  core::NaivePolicy b(4, oracle);
  ASSERT_TRUE(loadFromFile(p, b));
  EXPECT_EQ(a.directorySize(), b.directorySize());
  for (BlockAddr blk = 0; blk < 100; ++blk) {
    EXPECT_EQ(a.locate(blk, 0, false), b.locate(blk, 0, false)) << blk;
  }
  EXPECT_EQ(saveToFile(tmpPath("naive2.ckpt"), b), bytes);
}

TEST(Serial, GeneratorRoundTripResumesIdenticalStream) {
  const workload::AppProfile& prof = workload::profileByName("mcf");
  workload::SyntheticGenerator a(prof, 42);
  for (int i = 0; i < 5000; ++i) a.next();
  const std::string p = tmpPath("gen.ckpt");
  const std::string bytes = saveToFile(p, a);

  workload::SyntheticGenerator b(prof, 42);
  ASSERT_TRUE(loadFromFile(p, b));
  EXPECT_EQ(a.emitted(), b.emitted());
  EXPECT_EQ(saveToFile(tmpPath("gen2.ckpt"), b), bytes);
  for (int i = 0; i < 5000; ++i) {
    workload::TraceRecord ra = a.next();
    workload::TraceRecord rb = b.next();
    EXPECT_EQ(ra.kind, rb.kind);
    EXPECT_EQ(ra.vaddr, rb.vaddr);
    EXPECT_EQ(ra.pc, rb.pc);
  }
}

TEST(Serial, FaultModelRoundTrip) {
  rram::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 5;
  cfg.budgetWrites = 500.0;
  cfg.sigma = 0.2;
  rram::BankFaultModel a(cfg, 0, 16, 4);
  const std::string p = tmpPath("fault.ckpt");
  const std::string bytes = saveToFile(p, a);

  rram::FaultConfig other = cfg;
  other.seed = 77;  // different budgets, same geometry
  rram::BankFaultModel b(other, 0, 16, 4);
  ASSERT_TRUE(loadFromFile(p, b));
  EXPECT_EQ(a.variations(), b.variations());
  for (std::uint32_t f = 0; f < a.numFrames(); ++f) {
    EXPECT_EQ(a.writeLimit(f), b.writeLimit(f));
  }
  EXPECT_EQ(saveToFile(tmpPath("fault2.ckpt"), b), bytes);

  rram::BankFaultModel c(cfg, 0, 16, 8);  // different geometry
  EXPECT_FALSE(loadFromFile(p, c));
}

TEST(Serial, MeshNocRejectsGeometryMismatch) {
  // 4x4 and 8x2 have the same node count; the snapshot must still refuse
  // to cross geometries, because link indices mean different wires.
  noc::MeshNoc a{noc::NocConfig{}};
  const std::string p = tmpPath("mesh44.ckpt");
  saveToFile(p, a);

  noc::NocConfig wide;
  wide.width = 8;
  wide.height = 2;
  noc::MeshNoc b(wide);
  EXPECT_FALSE(loadFromFile(p, b));

  noc::MeshNoc c{noc::NocConfig{}};
  EXPECT_TRUE(loadFromFile(p, c));
}

TEST(Serial, MeshNocAcceptsLegacyNodesOnlySection) {
  // Pre-topology archives recorded only the node count.  They are accepted
  // as long as it matches (geometry then rides on the fingerprint).
  const std::string p = tmpPath("meshlegacy.ckpt");
  {
    serial::ArchiveWriter w(p);
    w.beginSection("c");
    w.putU32(16);
    w.endSection();
    ASSERT_TRUE(w.close());
  }
  noc::MeshNoc mesh{noc::NocConfig{}};
  EXPECT_TRUE(loadFromFile(p, mesh));

  noc::NocConfig small;
  small.width = 2;
  small.height = 2;
  noc::MeshNoc other(small);
  EXPECT_FALSE(loadFromFile(p, other));
}

// --- Fingerprint rules -----------------------------------------------------

sim::SystemConfig fastSingleCore() {
  sim::SystemConfig cfg = sim::singleCore();
  cfg.policy = core::PolicyKind::ReNuca;
  cfg.clusterSize = 1;  // the single-core rig has one LLC bank
  cfg.instrPerCore = 4000;
  cfg.warmupInstrPerCore = 1000;
  cfg.prewarmInstrPerCore = 40000;
  cfg.placementRefreshInstrPerCore = 15000;
  return cfg;
}

workload::WorkloadMix singleAppMix(const std::string& app) {
  workload::WorkloadMix mix;
  mix.name = app;
  mix.appNames = {app};
  return mix;
}

TEST(Fingerprint, ExcludesMeasurementOnlyKnobs) {
  sim::SystemConfig a = fastSingleCore();
  sim::SystemConfig b = a;
  workload::WorkloadMix mix = singleAppMix("mcf");
  // None of these affect what the untimed fast-forward does.
  b.cpt.thresholdPct = 75.0;
  b.cpt.capacity = 128;
  b.instrPerCore = 123456;
  b.warmupInstrPerCore = 777;
  b.placementRefreshInstrPerCore = 999;
  b.maxCycles = 1;
  b.epochInstrs = 50;
  b.coreCfg.robEntries = 168;
  b.l3.latency = 1;
  b.dramCfg.tCl = 5;
  EXPECT_EQ(sim::warmStateFingerprint(a, mix), sim::warmStateFingerprint(b, mix));
}

TEST(Fingerprint, IncludesWarmupRelevantKnobs) {
  sim::SystemConfig base = fastSingleCore();
  workload::WorkloadMix mix = singleAppMix("mcf");
  const std::uint64_t fp = sim::warmStateFingerprint(base, mix);

  sim::SystemConfig c1 = base;
  c1.seed = base.seed + 1;
  EXPECT_NE(sim::warmStateFingerprint(c1, mix), fp);

  sim::SystemConfig c2 = base;
  c2.policy = core::PolicyKind::SNuca;
  EXPECT_NE(sim::warmStateFingerprint(c2, mix), fp);

  sim::SystemConfig c3 = base;
  c3.prewarmInstrPerCore += 1;
  EXPECT_NE(sim::warmStateFingerprint(c3, mix), fp);

  sim::SystemConfig c4 = base;
  c4.l2.sizeBytes *= 2;
  EXPECT_NE(sim::warmStateFingerprint(c4, mix), fp);

  sim::SystemConfig c5 = base;
  c5.fault.enabled = true;
  EXPECT_NE(sim::warmStateFingerprint(c5, mix), fp);

  sim::SystemConfig c6 = base;
  c6.cpt.coldPredictsCritical = true;
  EXPECT_NE(sim::warmStateFingerprint(c6, mix), fp);

  EXPECT_NE(sim::warmStateFingerprint(base, singleAppMix("lbm")), fp);
}

// --- End-to-end snapshot contract ------------------------------------------

/// Strips report lines carrying provenance that is allowed to differ
/// between runs (timestamps, wall time, host, worker count).
std::string stripProvenance(const std::string& report) {
  std::istringstream is(report);
  std::ostringstream os;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"generated_unix\"") != std::string::npos) continue;
    if (line.find("\"wall_seconds\"") != std::string::npos) continue;
    if (line.find("\"host\"") != std::string::npos) continue;
    if (line.find("\"jobs\"") != std::string::npos) continue;
    os << line << '\n';
  }
  return os.str();
}

std::string reportFor(const sim::SystemConfig& cfg, const sim::RunResult& r,
                      const char* tag) {
  // One file per process: ctest runs several of these tests at once.
  const std::string p = tmpPath((std::string("rep-") + tag + "-" +
                                 std::to_string(::getpid()) + ".json")
                                    .c_str());
  EXPECT_TRUE(sim::writeRunReport(p, "snapshot-test", cfg, {{tag, r}}, 0.0));
  const std::string report = stripProvenance(slurp(p));
  std::remove(p.c_str());
  return report;
}

TEST(Snapshot, RestoredRunIsByteIdenticalToColdRun) {
  const std::string ckpt = tmpPath("warm.ckpt");
  std::remove(ckpt.c_str());
  workload::WorkloadMix mix = singleAppMix("mcf");

  // Cold baseline (no snapshot involvement at all).
  sim::SystemConfig cold = fastSingleCore();
  sim::RunResult rCold = sim::System(cold, mix).run();

  // Saving a snapshot must not perturb the run that saves it.
  sim::SystemConfig saver = fastSingleCore();
  saver.snapshotSavePath = ckpt;
  sim::RunResult rSave = sim::System(saver, mix).run();
  EXPECT_EQ(reportFor(cold, rSave, "run"), reportFor(cold, rCold, "run"));

  // Restoring replaces the fast-forward and reproduces the report bytes.
  sim::SystemConfig loader = fastSingleCore();
  loader.snapshotLoadPath = ckpt;
  sim::RunResult rLoad = sim::System(loader, mix).run();
  EXPECT_EQ(reportFor(cold, rLoad, "run"), reportFor(cold, rCold, "run"));
}

TEST(Snapshot, PreRefactorCheckpointStillRestores) {
  // tests/data/prerefactor_singlecore_mcf.ckpt was written by the
  // pre-SoA-refactor simulator, whose archives interleave per-entry
  // records and carry whatever stale tag/VPN bytes invalid frames last
  // held.  The SoA cache/TLB must keep accepting that layout (normalizing
  // invalid entries to the in-memory sentinels) and reproduce the cold
  // run's report bytes exactly.
  const std::string ckpt =
      std::string(RENUCA_TEST_DATA_DIR) + "/prerefactor_singlecore_mcf.ckpt";
  workload::WorkloadMix mix = singleAppMix("mcf");

  sim::SystemConfig cold = fastSingleCore();
  sim::RunResult rCold = sim::System(cold, mix).run();

  // Explicit restore first: byte-identity alone would not distinguish a
  // successful restore from a silent fall-back to the cold fast-forward.
  sim::SystemConfig loader = fastSingleCore();
  {
    sim::System probe(loader, mix);
    ASSERT_TRUE(probe.restoreFrom(ckpt));
  }
  loader.snapshotLoadPath = ckpt;
  sim::RunResult rLoad = sim::System(loader, mix).run();
  EXPECT_EQ(reportFor(cold, rLoad, "run"), reportFor(cold, rCold, "run"));

  // Restore -> save canonicalizes the old bytes (stale invalid-entry tags
  // become sentinels); a second round trip must then be byte-stable.
  const std::string p1 = tmpPath("prerefactor-resave1.ckpt");
  const std::string p2 = tmpPath("prerefactor-resave2.ckpt");
  {
    sim::System sys(fastSingleCore(), mix);
    ASSERT_TRUE(sys.restoreFrom(ckpt));
    ASSERT_TRUE(sys.snapshot(p1));
  }
  {
    sim::System sys(fastSingleCore(), mix);
    ASSERT_TRUE(sys.restoreFrom(p1));
    ASSERT_TRUE(sys.snapshot(p2));
  }
  EXPECT_EQ(slurp(p1), slurp(p2));
}

TEST(Snapshot, SaveLoadSaveProducesIdenticalArchives) {
  const std::string p1 = tmpPath("ss1.ckpt");
  const std::string p2 = tmpPath("ss2.ckpt");
  workload::WorkloadMix mix = singleAppMix("mcf");
  sim::SystemConfig cfg = fastSingleCore();
  cfg.snapshotSavePath = p1;
  sim::System(cfg, mix).run();

  sim::SystemConfig cfg2 = fastSingleCore();
  sim::System sys(cfg2, mix);
  ASSERT_TRUE(sys.restoreFrom(p1));
  ASSERT_TRUE(sys.snapshot(p2));
  EXPECT_EQ(slurp(p1), slurp(p2));
}

TEST(Snapshot, CorruptSnapshotFallsBackToColdFastForward) {
  const std::string ckpt = tmpPath("corrupt.ckpt");
  workload::WorkloadMix mix = singleAppMix("mcf");
  sim::SystemConfig cfg = fastSingleCore();
  cfg.snapshotSavePath = ckpt;
  sim::RunResult rCold = sim::System(cfg, mix).run();

  // Flip one payload byte near the end: restore must refuse before
  // touching any state, and the run must match the cold result.
  std::string bytes = slurp(ckpt);
  ASSERT_GT(bytes.size(), 100u);
  bytes[bytes.size() - 5] ^= 0x10;
  spit(ckpt, bytes);

  sim::SystemConfig loader = fastSingleCore();
  loader.snapshotLoadPath = ckpt;
  sim::System sys(loader, mix);
  EXPECT_FALSE(sys.restoreFrom(ckpt));
  sim::RunResult rFall = sys.run();

  sim::SystemConfig base = fastSingleCore();
  EXPECT_EQ(reportFor(base, rFall, "run"), reportFor(base, rCold, "run"));
}

TEST(Snapshot, MismatchedConfigurationIsRejected) {
  const std::string ckpt = tmpPath("mismatch.ckpt");
  workload::WorkloadMix mix = singleAppMix("mcf");
  sim::SystemConfig cfg = fastSingleCore();
  cfg.snapshotSavePath = ckpt;
  sim::System(cfg, mix).run();

  sim::SystemConfig other = fastSingleCore();
  other.seed = cfg.seed + 13;
  sim::System sys(other, mix);
  EXPECT_FALSE(sys.restoreFrom(ckpt));
}

TEST(Snapshot, PlacementMismatchIsRejected) {
  // Same geometry, different placement: the fingerprint carries the
  // placement key for non-default placements, so a snapshot taken under
  // the default corner MCs must not restore into a ring-MC run.
  const std::string ckpt = tmpPath("placemismatch.ckpt");
  workload::WorkloadMix mix = singleAppMix("mcf");
  sim::SystemConfig cfg = fastSingleCore();
  cfg.snapshotSavePath = ckpt;
  sim::System(cfg, mix).run();

  sim::SystemConfig ring = fastSingleCore();
  ring.placement.mcEdge = noc::McEdge::Ring;
  sim::System sys(ring, mix);
  EXPECT_FALSE(sys.restoreFrom(ckpt));
}

TEST(Fingerprint, PlacementChangesFingerprint) {
  sim::SystemConfig base = fastSingleCore();
  workload::WorkloadMix mix = singleAppMix("mcf");
  const std::uint64_t fp = sim::warmStateFingerprint(base, mix);

  sim::SystemConfig ring = base;
  ring.placement.mcEdge = noc::McEdge::Ring;
  EXPECT_NE(sim::warmStateFingerprint(ring, mix), fp);

  sim::SystemConfig twoMcs = base;
  twoMcs.placement.numMcs = 2;
  EXPECT_NE(sim::warmStateFingerprint(twoMcs, mix), fp);
}

TEST(Fingerprint, CompressionChangesFingerprint) {
  // compress=none must keep the seed fingerprint (snapshots stay shareable
  // with uncompressed runs); any engine changes it, and different engines
  // differ from each other (their frame descriptors are not exchangeable).
  sim::SystemConfig base = fastSingleCore();
  workload::WorkloadMix mix = singleAppMix("mcf");
  const std::uint64_t fp = sim::warmStateFingerprint(base, mix);

  sim::SystemConfig off = base;
  off.compress = compress::Kind::None;
  EXPECT_EQ(sim::warmStateFingerprint(off, mix), fp);

  sim::SystemConfig bdi = base;
  bdi.compress = compress::Kind::Bdi;
  sim::SystemConfig both = base;
  both.compress = compress::Kind::BdiFpc;
  EXPECT_NE(sim::warmStateFingerprint(bdi, mix), fp);
  EXPECT_NE(sim::warmStateFingerprint(both, mix), fp);
  EXPECT_NE(sim::warmStateFingerprint(bdi, mix), sim::warmStateFingerprint(both, mix));
}

TEST(Snapshot, CompressedSaveLoadSaveIsByteStable) {
  const std::string p1 = tmpPath("cmp-ss1.ckpt");
  const std::string p2 = tmpPath("cmp-ss2.ckpt");
  workload::WorkloadMix mix = singleAppMix("mcf");
  sim::SystemConfig cfg = fastSingleCore();
  cfg.compress = compress::Kind::BdiFpc;
  cfg.snapshotSavePath = p1;
  sim::System(cfg, mix).run();

  // The archive must actually carry the compression state sections.
  {
    serial::ArchiveReader ar(p1);
    ASSERT_TRUE(ar.ok());
    EXPECT_TRUE(ar.hasSection("cmp0"));
    EXPECT_TRUE(ar.hasSection("cmpmeta"));
  }

  sim::SystemConfig cfg2 = fastSingleCore();
  cfg2.compress = compress::Kind::BdiFpc;
  sim::System sys(cfg2, mix);
  ASSERT_TRUE(sys.restoreFrom(p1));
  ASSERT_TRUE(sys.snapshot(p2));
  EXPECT_EQ(slurp(p1), slurp(p2));
}

TEST(Snapshot, CompressedRestoreReproducesRun) {
  const std::string ckpt = tmpPath("cmp-restore.ckpt");
  workload::WorkloadMix mix = singleAppMix("mcf");
  sim::SystemConfig cfg = fastSingleCore();
  cfg.compress = compress::Kind::BdiFpc;
  cfg.snapshotSavePath = ckpt;
  sim::RunResult rCold = sim::System(cfg, mix).run();

  sim::SystemConfig loader = fastSingleCore();
  loader.compress = compress::Kind::BdiFpc;
  loader.snapshotLoadPath = ckpt;
  sim::RunResult rWarm = sim::System(loader, mix).run();
  sim::SystemConfig base = fastSingleCore();
  base.compress = compress::Kind::BdiFpc;
  EXPECT_EQ(reportFor(base, rWarm, "run"), reportFor(base, rCold, "run"));
}

TEST(Snapshot, PreCompressionCheckpointRefusedUnderCompression) {
  // The committed pre-compression fixture restores fine into an
  // uncompressed run (Snapshot.PreRefactorCheckpointStillRestores) but
  // must be refused by a compressed config: it carries no frame content
  // descriptors, and silently restoring would fake virgin cells.  The
  // fingerprint's compress suffix is what rejects it.
  const std::string ckpt =
      std::string(RENUCA_TEST_DATA_DIR) + "/prerefactor_singlecore_mcf.ckpt";
  workload::WorkloadMix mix = singleAppMix("mcf");
  sim::SystemConfig cfg = fastSingleCore();
  cfg.compress = compress::Kind::BdiFpc;
  sim::System sys(cfg, mix);
  EXPECT_FALSE(sys.restoreFrom(ckpt));
}

TEST(Snapshot, SharingRunsRefuseToSnapshot) {
  workload::WorkloadMix mix = singleAppMix("mcf");
  sim::SystemConfig cfg = fastSingleCore();
  cfg.enableSharing = true;
  sim::System sys(cfg, mix);
  EXPECT_FALSE(sys.snapshot(tmpPath("sharing.ckpt")));
}

// --- Sweep warm-start reuse ------------------------------------------------

sim::SweepPlan thresholdPlan() {
  sim::SweepPlan plan;
  for (const char* app : {"mcf", "lbm"}) {
    for (double threshold : {3.0, 50.0}) {
      sim::SystemConfig cfg = fastSingleCore();
      cfg.cpt.thresholdPct = threshold;
      plan.addSingleApp(std::string(app) + "/t" + std::to_string(threshold), cfg,
                        app);
    }
  }
  return plan;
}

void expectSameResults(const std::vector<sim::RunResult>& a,
                       const std::vector<sim::RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].measuredCycles, b[i].measuredCycles) << i;
    EXPECT_EQ(a[i].coreIpc, b[i].coreIpc) << i;
    EXPECT_EQ(a[i].bankWrites, b[i].bankWrites) << i;
    EXPECT_EQ(a[i].coreCommitted, b[i].coreCommitted) << i;
    EXPECT_DOUBLE_EQ(a[i].nonCriticalWriteFrac, b[i].nonCriticalWriteFrac) << i;
  }
}

TEST(SweepWarmStart, SerialWarmStartMatchesColdSweep) {
  sim::SweepPlan plan = thresholdPlan();
  sim::SweepOptions coldOpts;
  coldOpts.jobs = 1;
  std::vector<sim::RunResult> cold = sim::runPlan(plan, coldOpts);

  const std::string dir = tmpPath("warmdir-serial");
  std::filesystem::remove_all(dir);
  sim::SweepOptions warmOpts;
  warmOpts.jobs = 1;
  warmOpts.warmStartDir = dir;
  std::vector<sim::RunResult> warm = sim::runPlan(plan, warmOpts);
  expectSameResults(cold, warm);

  // One shared snapshot per app (the two thresholds share a fingerprint).
  std::size_t snapshots = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".ckpt") ++snapshots;
  }
  EXPECT_EQ(snapshots, 2u);
}

TEST(SweepWarmStart, ParallelWarmStartMatchesColdSweep) {
  sim::SweepPlan plan = thresholdPlan();
  sim::SweepOptions coldOpts;
  coldOpts.jobs = 1;
  std::vector<sim::RunResult> cold = sim::runPlan(plan, coldOpts);

  const std::string dir = tmpPath("warmdir-par");
  std::filesystem::remove_all(dir);
  sim::SweepOptions warmOpts;
  warmOpts.jobs = 4;
  warmOpts.warmStartDir = dir;
  std::vector<sim::RunResult> warm = sim::runPlan(plan, warmOpts);
  expectSameResults(cold, warm);

  // A second sweep over the same directory reuses the snapshots (every
  // matching job becomes a follower) and still matches.
  std::vector<sim::RunResult> again = sim::runPlan(plan, warmOpts);
  expectSameResults(cold, again);
}

}  // namespace
}  // namespace renuca
