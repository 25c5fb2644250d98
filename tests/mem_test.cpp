#include <gtest/gtest.h>

#include "mem/bitband.h"
#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/fault_injector.h"
#include "mem/flash.h"
#include "mem/mpu.h"
#include "mem/port.h"
#include "mem/sram.h"
#include "mem/tcm.h"

namespace aces::mem {
namespace {

// ----- Bus -------------------------------------------------------------------

TEST(Bus, RoutesToDevices) {
  Bus bus;
  Sram a("a", 0x100);
  Sram b("b", 0x100);
  bus.attach(0x1000, a);
  bus.attach(0x2000, b);
  ASSERT_TRUE(bus.write(0x1004, 4, 0xAABBCCDD, 0).ok());
  ASSERT_TRUE(bus.write(0x2004, 4, 0x11223344, 0).ok());
  EXPECT_EQ(bus.read(0x1004, 4, Access::read, 0).value, 0xAABBCCDDu);
  EXPECT_EQ(bus.read(0x2004, 4, Access::read, 0).value, 0x11223344u);
}

TEST(Bus, UnmappedFaults) {
  Bus bus;
  Sram a("a", 0x100);
  bus.attach(0x1000, a);
  EXPECT_EQ(bus.read(0x0, 4, Access::read, 0).fault, Fault::unmapped);
  EXPECT_EQ(bus.read(0x1100, 4, Access::read, 0).fault, Fault::unmapped);
  EXPECT_EQ(bus.write(0x5000, 4, 0, 0).fault, Fault::unmapped);
}

TEST(Bus, MisalignedFaults) {
  Bus bus;
  Sram a("a", 0x100);
  bus.attach(0x1000, a);
  EXPECT_EQ(bus.read(0x1001, 4, Access::read, 0).fault, Fault::misaligned);
  EXPECT_EQ(bus.read(0x1002, 4, Access::read, 0).fault, Fault::misaligned);
  EXPECT_EQ(bus.read(0x1001, 2, Access::read, 0).fault, Fault::misaligned);
  EXPECT_TRUE(bus.read(0x1002, 2, Access::read, 0).ok());
  EXPECT_TRUE(bus.read(0x1001, 1, Access::read, 0).ok());
}

TEST(Bus, OverlapRejected) {
  Bus bus;
  Sram a("a", 0x1000);
  Sram b("b", 0x1000);
  bus.attach(0x1000, a);
  EXPECT_THROW(bus.attach(0x1800, b), std::logic_error);
  EXPECT_NO_THROW(bus.attach(0x2000, b));
}

// The MRU last-device memo must be routing-transparent: interleaving hits,
// region switches, unmapped holes, boundary straddles and fault routing
// behaves identically with a cold and a warm memo.
TEST(Bus, MruMemoIsRoutingTransparent) {
  Bus bus;
  Sram a("a", 0x100);
  Sram b("b", 0x100);
  Flash flash(FlashConfig{.size_bytes = 0x100});
  bus.attach(0x1000, a);
  bus.attach(0x2000, b);
  bus.attach(0x3000, flash);
  ASSERT_TRUE(bus.write(0x1000, 4, 0x11111111, 0).ok());
  ASSERT_TRUE(bus.write(0x2000, 4, 0x22222222, 0).ok());

  for (int pass = 0; pass < 3; ++pass) {  // pass 0 cold, then memo-warm
    EXPECT_EQ(bus.read(0x1000, 4, Access::read, 0).value, 0x11111111u);
    EXPECT_EQ(bus.read(0x1000, 4, Access::read, 0).value, 0x11111111u);
    EXPECT_EQ(bus.read(0x2000, 4, Access::read, 0).value, 0x22222222u);
    // Unmapped hole between regions; the memo must not swallow it.
    EXPECT_EQ(bus.read(0x1100, 4, Access::read, 0).fault, Fault::unmapped);
    // Back to the memoized region.
    EXPECT_EQ(bus.read(0x1000, 4, Access::read, 0).value, 0x11111111u);
    // Straddling the end of a memoized device is still misaligned.
    EXPECT_EQ(bus.read(0x10FE, 4, Access::read, 0).fault, Fault::misaligned);
    EXPECT_EQ(bus.read(0x10FC, 4, Access::read, 0).fault, Fault::none);
    // Unaligned accesses fault before any routing.
    EXPECT_EQ(bus.read(0x1002, 4, Access::read, 0).fault, Fault::misaligned);
    // Fault routing through the write memo: flash rejects runtime writes
    // every time, even right after a successful SRAM write warmed the memo.
    ASSERT_TRUE(bus.write(0x2004, 4, pass, 0).ok());
    EXPECT_EQ(bus.write(0x3000, 4, 0, 0).fault, Fault::readonly);
    EXPECT_EQ(bus.write(0x1080, 2, 0xBEEF, 0).fault, Fault::none);
    EXPECT_EQ(bus.read(0x1080, 2, Access::read, 0).value, 0xBEEFu);
    // Fetch uses its own memo slot and routes independently.
    EXPECT_EQ(bus.read(0x3000, 4, Access::fetch, 0).fault, Fault::none);
    EXPECT_EQ(bus.read(0x2000, 4, Access::fetch, 0).value, 0x22222222u);
  }

  // Overlap diagnostics are unaffected by a warm memo.
  Sram c("c", 0x100);
  EXPECT_THROW(bus.attach(0x1080, c), std::logic_error);
  // Attaching into a hole after the failure still works and is routable.
  EXPECT_NO_THROW(bus.attach(0x1200, c));
  EXPECT_TRUE(bus.write(0x1200, 4, 7, 0).ok());
  EXPECT_EQ(bus.read(0x1200, 4, Access::read, 0).value, 7u);
}

TEST(Bus, WriteSnoopFiresOnlyInsideWatchWindow) {
  class Recorder final : public WriteSnoop {
   public:
    void watch(std::uint32_t lo, std::uint32_t hi) {
      watch_lo_ = lo;
      watch_hi_ = hi;
    }
    void on_write(std::uint32_t addr, std::uint32_t len) override {
      ++count;
      last_addr = addr;
      last_len = len;
    }
    int count = 0;
    std::uint32_t last_addr = 0;
    std::uint32_t last_len = 0;
  };

  Bus bus;
  Sram a("a", 0x1000);
  bus.attach(0x1000, a);
  Recorder rec;
  bus.set_write_snoop(&rec);

  // Empty window (the default): nothing fires.
  ASSERT_TRUE(bus.write(0x1000, 4, 1, 0).ok());
  EXPECT_EQ(rec.count, 0);

  rec.watch(0x1100, 0x1140);
  ASSERT_TRUE(bus.write(0x10FC, 4, 1, 0).ok());  // ends exactly at lo
  EXPECT_EQ(rec.count, 0);
  ASSERT_TRUE(bus.write(0x1140, 4, 1, 0).ok());  // starts exactly at hi
  EXPECT_EQ(rec.count, 0);
  ASSERT_TRUE(bus.write(0x113E, 2, 1, 0).ok());  // last bytes of the window
  EXPECT_EQ(rec.count, 1);
  EXPECT_EQ(rec.last_addr, 0x113Eu);
  // Faulted writes never snoop.
  EXPECT_EQ(bus.write(0x5000, 4, 1, 0).fault, Fault::unmapped);
  EXPECT_EQ(rec.count, 1);
  // load_image into the window snoops once with the whole range.
  const std::uint8_t img[] = {1, 2, 3, 4};
  ASSERT_TRUE(bus.load_image(0x1120, img, 4));
  EXPECT_EQ(rec.count, 2);
  EXPECT_EQ(rec.last_len, 4u);
}

TEST(Bus, DirectSpanResolvesRamAndDeclinesFlash) {
  Bus bus;
  Sram a("a", 0x100, 2);
  Flash flash(FlashConfig{.size_bytes = 0x100});
  bus.attach(0x1000, a);
  bus.attach(0x3000, flash);

  DirectSpan span;
  ASSERT_TRUE(bus.direct_span(0x1040, &span));
  EXPECT_EQ(span.base, 0x1000u);
  EXPECT_EQ(span.size, 0x100u);
  EXPECT_EQ(span.read_cycles, 2u);
  EXPECT_TRUE(span.writable);
  ASSERT_NE(span.data, nullptr);
  // The span is the device's real storage.
  ASSERT_TRUE(bus.write(0x1040, 4, 0xA5A55A5Au, 0).ok());
  EXPECT_EQ(span.data[0x40], 0x5Au);

  // Flash declines but reports its mapping range for negative caching.
  EXPECT_FALSE(bus.direct_span(0x3010, &span));
  EXPECT_EQ(span.data, nullptr);
  EXPECT_EQ(span.base, 0x3000u);
  EXPECT_EQ(span.size, 0x100u);

  // Unmapped: no span, no range.
  EXPECT_FALSE(bus.direct_span(0x9000, &span));
  EXPECT_EQ(span.size, 0u);
}

TEST(Bus, FixedFetchCostRegimes) {
  Bus bus;
  Sram a("a", 0x100, 3);
  Flash ideal(FlashConfig{.size_bytes = 0x100, .line_access_cycles = 1});
  Flash slow(FlashConfig{.size_bytes = 0x100, .line_access_cycles = 5});
  FlashConfig no_prefetch{.size_bytes = 0x100, .line_access_cycles = 5};
  no_prefetch.prefetch_enabled = false;
  Flash raw(no_prefetch);
  bus.attach(0x1000, a);
  bus.attach(0x3000, ideal);
  bus.attach(0x4000, slow);
  bus.attach(0x5000, raw);

  EXPECT_EQ(bus.fixed_fetch_cost(0x1000, 4), 3u);
  // Ideal flash: one cycle per 8-byte line touched.
  EXPECT_EQ(bus.fixed_fetch_cost(0x3000, 4), 1u);
  EXPECT_EQ(bus.fixed_fetch_cost(0x3006, 4), 2u);  // straddles a line
  // A stateful streamer must decline...
  EXPECT_EQ(bus.fixed_fetch_cost(0x4000, 4), std::nullopt);
  // ...but with the prefetcher off every fetch pays the full line time.
  EXPECT_EQ(bus.fixed_fetch_cost(0x5000, 4), 5u);
  EXPECT_EQ(bus.fixed_fetch_cost(0x5006, 4), 10u);
  // Unmapped / out of range: no answer.
  EXPECT_EQ(bus.fixed_fetch_cost(0x9000, 4), std::nullopt);
  EXPECT_EQ(bus.fixed_fetch_cost(0x10FE, 4), std::nullopt);
}

TEST(Bus, FetchStreamerOnlyWhereFetchCostIsStateful) {
  Bus bus;
  Sram a("a", 0x100, 1);
  Flash ideal(FlashConfig{.size_bytes = 0x100, .line_access_cycles = 1});
  Flash slow(FlashConfig{.size_bytes = 0x100, .line_access_cycles = 5});
  FlashConfig no_prefetch{.size_bytes = 0x100, .line_access_cycles = 5};
  no_prefetch.prefetch_enabled = false;
  Flash raw(no_prefetch);
  bus.attach(0x1000, a);
  bus.attach(0x3000, ideal);
  bus.attach(0x4000, slow);
  bus.attach(0x5000, raw);

  // The streamer is handed over, rebased, exactly where fixed_fetch_cost
  // declines; the state-free regimes and other devices keep their price.
  FetchStreamer s;
  ASSERT_TRUE(bus.fetch_streamer(0x4010, &s));
  EXPECT_EQ(s.flash, &slow);
  EXPECT_EQ(s.base, 0x4000u);
  EXPECT_EQ(s.size, 0x100u);
  for (const std::uint32_t addr : {0x1000u, 0x3000u, 0x5000u, 0x9000u}) {
    EXPECT_FALSE(bus.fetch_streamer(addr, &s)) << std::hex << addr;
    EXPECT_EQ(s.flash, nullptr);
  }

  // Driving the streamer inline is the real fetch, minus the value; a peek
  // is neither.
  const std::uint8_t img[] = {0x11, 0x22, 0x33, 0x44};
  ASSERT_TRUE(bus.load_image(0x4000, img, 4));
  Flash twin(FlashConfig{.size_bytes = 0x100, .line_access_cycles = 5});
  EXPECT_EQ(slow.peek(0, 4), 0x44332211u);
  for (const std::uint32_t off : {0u, 2u, 4u, 8u, 6u, 0x40u}) {
    const std::uint64_t now = 10 * off;
    EXPECT_EQ(slow.stream_fetch(off, 2, now),
              twin.read(off, 2, Access::fetch, now).cycles);
  }
  EXPECT_EQ(slow.stats().stream_hits, twin.stats().stream_hits);
  EXPECT_EQ(slow.stats().stream_next_line, twin.stats().stream_next_line);
  EXPECT_EQ(slow.stats().stream_breaks, twin.stats().stream_breaks);
}

TEST(Cache, DeclinesFetchStreamer) {
  Bus bus;
  Flash slow(FlashConfig{.size_bytes = 0x1000, .line_access_cycles = 5});
  bus.attach(0, slow);
  Cache icache(CacheConfig{}, bus);
  DirectPort direct(bus);
  FetchStreamer s;
  ASSERT_EQ(direct.transparent_bus(), &bus);
  EXPECT_TRUE(direct.transparent_bus()->fetch_streamer(0x10, &s));
  EXPECT_EQ(s.flash, &slow);
  EXPECT_EQ(icache.transparent_bus(), nullptr);
}

TEST(Bus, LoadImageProgramsDevices) {
  Bus bus;
  Flash flash(FlashConfig{.size_bytes = 0x1000});
  bus.attach(0, flash);
  const std::uint8_t img[] = {1, 2, 3, 4};
  ASSERT_TRUE(bus.load_image(0x10, img, 4));
  EXPECT_EQ(bus.read(0x10, 4, Access::read, 0).value, 0x04030201u);
  // Runtime writes to flash still fault.
  EXPECT_EQ(bus.write(0x10, 4, 0, 0).fault, Fault::readonly);
}

// ----- SRAM -------------------------------------------------------------------

TEST(Sram, ByteHalfWordAccess) {
  Sram s("s", 64);
  ASSERT_TRUE(s.write(0, 4, 0xDDCCBBAA, 0).ok());
  EXPECT_EQ(s.read(0, 1, Access::read, 0).value, 0xAAu);
  EXPECT_EQ(s.read(1, 1, Access::read, 0).value, 0xBBu);
  EXPECT_EQ(s.read(2, 2, Access::read, 0).value, 0xDDCCu);
  ASSERT_TRUE(s.write(1, 1, 0x55, 0).ok());
  EXPECT_EQ(s.read(0, 4, Access::read, 0).value, 0xDDCC55AAu);
}

// ----- Flash streamer ---------------------------------------------------------

FlashConfig small_flash() {
  FlashConfig c;
  c.size_bytes = 0x1000;
  c.line_access_cycles = 5;
  c.line_bytes = 8;
  return c;
}

TEST(Flash, SequentialFetchStreams) {
  Flash f(small_flash());
  std::uint64_t now = 0;
  // First fetch: full line access.
  auto r = f.read(0, 4, Access::fetch, now);
  EXPECT_EQ(r.cycles, 5u);
  now += r.cycles;
  // Second fetch in same line: buffer hit.
  r = f.read(4, 4, Access::fetch, now);
  EXPECT_EQ(r.cycles, 1u);
  now += r.cycles;
  // Fetch in next line: the prefetcher has been working since the first
  // access; some residual wait is possible but never more than a random
  // access.
  r = f.read(8, 4, Access::fetch, now);
  EXPECT_LE(r.cycles, 5u);
  now += r.cycles;
  // Once the core has burned a few execute cycles, the following line is
  // ready and the fetch is a genuine stream hit.
  now += 8;
  r = f.read(16, 4, Access::fetch, now);
  EXPECT_EQ(r.cycles, 1u);
}

TEST(Flash, SteadyStateStreamingIsCheap) {
  // Once the CPU consumes ~1 instruction/cycle+, the prefetcher keeps up
  // and the average fetch cost stays well under the random access time.
  Flash f(small_flash());
  std::uint64_t now = 100;
  std::uint64_t cycles = 0;
  for (std::uint32_t addr = 0; addr < 512; addr += 4) {
    const auto r = f.read(addr, 4, Access::fetch, now);
    // Model a core that spends 2 cycles executing what it fetched.
    now += r.cycles + 2;
    cycles += r.cycles;
  }
  EXPECT_LT(static_cast<double>(cycles) / 128.0, 2.0);
}

TEST(Flash, BranchBreaksStream) {
  Flash f(small_flash());
  std::uint64_t now = 0;
  now += f.read(0, 4, Access::fetch, now).cycles;
  now += f.read(4, 4, Access::fetch, now).cycles;
  // Non-sequential jump far ahead: full access again.
  const auto r = f.read(0x200, 4, Access::fetch, now);
  EXPECT_EQ(r.cycles, 5u);
  EXPECT_GE(f.stats().stream_breaks, 2u);
}

TEST(Flash, LiteralPoolReadDisruptsStream) {
  Flash f(small_flash());
  std::uint64_t now = 0;
  now += f.read(0, 4, Access::fetch, now).cycles;
  now += f.read(4, 4, Access::fetch, now).cycles;
  // Data read from a pool 256 bytes ahead: pays a full access...
  auto r = f.read(0x100, 4, Access::read, now);
  EXPECT_EQ(r.cycles, 5u);
  now += r.cycles;
  EXPECT_EQ(f.stats().data_disruptions, 1u);
  // ...and the NEXT instruction fetch also pays full price: the stream was
  // repositioned. This is the double penalty of §2.2.
  r = f.read(8, 4, Access::fetch, now);
  EXPECT_EQ(r.cycles, 5u);
}

TEST(Flash, DualBufferPreservesInstructionStream) {
  FlashConfig c = small_flash();
  c.dual_buffer = true;
  Flash f(c);
  std::uint64_t now = 0;
  now += f.read(0, 4, Access::fetch, now).cycles;
  now += f.read(4, 4, Access::fetch, now).cycles;
  now += f.read(0x100, 4, Access::read, now).cycles;  // data via own buffer
  // Instruction stream intact: next-line fetch is not a full re-access.
  const auto r = f.read(8, 4, Access::fetch, now);
  EXPECT_LT(r.cycles, 5u);
  EXPECT_EQ(f.stats().data_disruptions, 0u);
}

TEST(Flash, PrefetchDisabledAlwaysPaysFullLatency) {
  FlashConfig c = small_flash();
  c.prefetch_enabled = false;
  Flash f(c);
  std::uint64_t now = 0;
  for (std::uint32_t addr = 0; addr < 64; addr += 4) {
    const auto r = f.read(addr, 4, Access::fetch, now);
    EXPECT_EQ(r.cycles, 5u);
    now += r.cycles;
  }
}

TEST(Flash, WritesFault) {
  Flash f(small_flash());
  EXPECT_EQ(f.write(0, 4, 1, 0).fault, Fault::readonly);
}

// ----- TCM ---------------------------------------------------------------------

TEST(Tcm, HoldAndRepairDeliversCorrectData) {
  TcmConfig c;
  c.size_bytes = 256;
  c.fault_tolerant = true;
  c.repair_cycles = 6;
  Tcm tcm(c);
  ASSERT_TRUE(tcm.write(0x10, 4, 0xCAFEBABE, 0).ok());
  tcm.inject_bit_flips(0x11, 0x04);
  const auto r = tcm.read(0x10, 4, Access::read, 0);
  EXPECT_EQ(r.value, 0xCAFEBABEu);        // corrected
  EXPECT_TRUE(r.soft_error_recovered);
  EXPECT_EQ(r.cycles, 1u + 6u);           // stall included
  EXPECT_FALSE(r.silently_corrupt);
  // Repaired: the next read is clean and fast.
  const auto r2 = tcm.read(0x10, 4, Access::read, 0);
  EXPECT_EQ(r2.cycles, 1u);
  EXPECT_FALSE(r2.soft_error_recovered);
  EXPECT_EQ(tcm.stats().repairs, 1u);
}

TEST(Tcm, UnprotectedReadIsSilentlyCorrupt) {
  TcmConfig c;
  c.size_bytes = 256;
  c.fault_tolerant = false;
  Tcm tcm(c);
  ASSERT_TRUE(tcm.write(0x10, 4, 0xCAFEBABE, 0).ok());
  tcm.inject_bit_flips(0x11, 0x04);
  const auto r = tcm.read(0x10, 4, Access::read, 0);
  EXPECT_NE(r.value, 0xCAFEBABEu);
  EXPECT_TRUE(r.silently_corrupt);
  EXPECT_EQ(r.value, 0xCAFEBABEu ^ 0x0400u);
  EXPECT_EQ(tcm.stats().silent_corruptions, 1u);
}

TEST(Tcm, OverwriteClearsUpset) {
  TcmConfig c;
  c.size_bytes = 64;
  c.fault_tolerant = false;
  Tcm tcm(c);
  tcm.inject_bit_flips(0x0, 0xFF);
  ASSERT_TRUE(tcm.write(0x0, 4, 0x12345678, 0).ok());
  const auto r = tcm.read(0x0, 4, Access::read, 0);
  EXPECT_EQ(r.value, 0x12345678u);
  EXPECT_FALSE(r.silently_corrupt);
}

// ----- Bit-band -----------------------------------------------------------------

TEST(BitBand, WriteSetsAndClearsBits) {
  Sram ram("ram", 256);
  BitBandAlias bb(ram, 256);
  // Set bit 3 of byte 5: alias word = 5*32 + 3*4.
  ASSERT_TRUE(bb.write(5 * 32 + 3 * 4, 4, 1, 0).ok());
  EXPECT_EQ(ram.read(5, 1, Access::read, 0).value, 0x08u);
  // Set another bit; clear the first.
  ASSERT_TRUE(bb.write(5 * 32 + 6 * 4, 4, 1, 0).ok());
  ASSERT_TRUE(bb.write(5 * 32 + 3 * 4, 4, 0, 0).ok());
  EXPECT_EQ(ram.read(5, 1, Access::read, 0).value, 0x40u);
}

TEST(BitBand, ReadReturnsBit) {
  Sram ram("ram", 256);
  BitBandAlias bb(ram, 256);
  ASSERT_TRUE(ram.write(7, 1, 0xA5, 0).ok());  // 1010 0101
  EXPECT_EQ(bb.read(7 * 32 + 0 * 4, 4, Access::read, 0).value, 1u);
  EXPECT_EQ(bb.read(7 * 32 + 1 * 4, 4, Access::read, 0).value, 0u);
  EXPECT_EQ(bb.read(7 * 32 + 2 * 4, 4, Access::read, 0).value, 1u);
  EXPECT_EQ(bb.read(7 * 32 + 7 * 4, 4, Access::read, 0).value, 1u);
}

TEST(BitBand, OnlyTouchesTargetBit) {
  Sram ram("ram", 256);
  BitBandAlias bb(ram, 256);
  ASSERT_TRUE(ram.write(9, 1, 0xFF, 0).ok());
  ASSERT_TRUE(bb.write(9 * 32 + 4 * 4, 4, 0, 0).ok());  // clear bit 4
  EXPECT_EQ(ram.read(9, 1, Access::read, 0).value, 0xEFu);
}

TEST(BitBand, AliasSizeIs32xTarget) {
  Sram ram("ram", 1024);
  BitBandAlias bb(ram, 1024);
  EXPECT_EQ(bb.size_bytes(), 1024u * 32u);
}

TEST(BitBand, RejectsNonWordAccess) {
  Sram ram("ram", 64);
  BitBandAlias bb(ram, 64);
  EXPECT_NE(bb.read(0, 1, Access::read, 0).fault, Fault::none);
  EXPECT_NE(bb.write(0, 2, 1, 0).fault, Fault::none);
}

TEST(BitBand, OnBusAlongsideTarget) {
  Bus bus;
  Sram ram("ram", 0x1000);
  BitBandAlias bb(ram, 0x1000);
  bus.attach(0x2000'0000u, ram);
  bus.attach(0x2200'0000u, bb);
  ASSERT_TRUE(bus.write(0x2200'0000u + 0x40u * 32u + 5u * 4u, 4, 1, 0).ok());
  EXPECT_EQ(bus.read(0x2000'0040u, 1, Access::read, 0).value, 0x20u);
}

// ----- Cache --------------------------------------------------------------------

struct CacheFixture {
  Bus bus;
  Flash flash{small_flash()};
  Sram sram{"sram", 0x1000};
  CacheFixture() {
    bus.attach(0x0000, flash);
    bus.attach(0x8000, sram);
  }
  Cache make(bool ft = false) {
    CacheConfig c;
    c.line_bytes = 16;
    c.num_sets = 4;
    c.ways = 2;
    c.fault_tolerant = ft;
    c.cacheable_limit = 0x8000;  // only the flash is cached
    return Cache(c, bus);
  }
  void seed(std::uint32_t addr, std::uint32_t value) {
    const std::uint8_t bytes[4] = {
        static_cast<std::uint8_t>(value), static_cast<std::uint8_t>(value >> 8),
        static_cast<std::uint8_t>(value >> 16),
        static_cast<std::uint8_t>(value >> 24)};
    ASSERT_TRUE(bus.load_image(addr, bytes, 4));
  }
};

TEST(Cache, MissThenHit) {
  CacheFixture f;
  f.seed(0x20, 0x1234'5678);
  Cache cache = f.make();
  const auto miss = cache.read(0x20, 4, Access::fetch, 0);
  EXPECT_EQ(miss.value, 0x12345678u);
  const auto hit = cache.read(0x20, 4, Access::fetch, 100);
  EXPECT_EQ(hit.value, 0x12345678u);
  EXPECT_LT(hit.cycles, miss.cycles);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, SpatialLocalityWithinLine) {
  CacheFixture f;
  f.seed(0x40, 0xAAAAAAAA);
  f.seed(0x44, 0xBBBBBBBB);
  Cache cache = f.make();
  (void)cache.read(0x40, 4, Access::read, 0);
  const auto r = cache.read(0x44, 4, Access::read, 10);
  EXPECT_EQ(r.value, 0xBBBBBBBBu);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, LruEviction) {
  CacheFixture f;
  Cache cache = f.make();
  // Set 0 with 2 ways and 4 sets x 16B lines: addresses 0x000, 0x040,
  // 0x080 all map to set 0 (stride = sets * line = 64).
  (void)cache.read(0x000, 4, Access::read, 0);
  (void)cache.read(0x040, 4, Access::read, 10);
  (void)cache.read(0x000, 4, Access::read, 20);  // refresh LRU of line 0
  (void)cache.read(0x080, 4, Access::read, 30);  // evicts 0x040
  cache.reset_stats();
  (void)cache.read(0x000, 4, Access::read, 40);
  EXPECT_EQ(cache.stats().hits, 1u);
  (void)cache.read(0x040, 4, Access::read, 50);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, WriteThroughUpdatesBothSides) {
  CacheFixture f;
  Cache cache = f.make();
  CacheConfig sc = cache.config();
  (void)sc;
  // Use the SRAM region via a second cache that covers it.
  CacheConfig c;
  c.line_bytes = 16;
  c.num_sets = 4;
  c.ways = 1;
  c.cacheable_base = 0x8000;
  c.cacheable_limit = 0x9000;
  Cache dcache(c, f.bus);
  ASSERT_TRUE(dcache.write(0x8010, 4, 0x55AA55AA, 0).ok());
  // Memory behind the cache sees it immediately (write-through).
  EXPECT_EQ(f.bus.read(0x8010, 4, Access::read, 0).value, 0x55AA55AAu);
  // And a read through the cache agrees.
  EXPECT_EQ(dcache.read(0x8010, 4, Access::read, 0).value, 0x55AA55AAu);
}

TEST(Cache, NonCacheableBypasses) {
  CacheFixture f;
  Cache cache = f.make();
  ASSERT_TRUE(cache.write(0x8004, 4, 7, 0).ok());
  (void)cache.read(0x8004, 4, Access::read, 0);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(Cache, SoftErrorSilentWithoutFt) {
  CacheFixture f;
  f.seed(0x20, 0xDEADBEEF);
  Cache cache = f.make(/*ft=*/false);
  (void)cache.read(0x20, 4, Access::read, 0);
  support::Rng256 rng(1);
  // Flip data bits until the stored line is corrupted (tag_fraction 0).
  for (int k = 0; k < 200; ++k) {
    ASSERT_TRUE(cache.flip_random_bit(rng, 0.0));
  }
  const auto r = cache.read(0x20, 4, Access::read, 10);
  // With 200 random flips over a single 16-byte line, the target word is
  // overwhelmingly likely corrupted; tolerate the rare clean case.
  if (r.silently_corrupt) {
    EXPECT_GE(cache.stats().silent_corruptions, 1u);
    EXPECT_FALSE(r.soft_error_recovered);
  }
}

TEST(Cache, SoftErrorRecoveredWithFt) {
  CacheFixture f;
  f.seed(0x20, 0xDEADBEEF);
  Cache cache = f.make(/*ft=*/true);
  (void)cache.read(0x20, 4, Access::read, 0);
  support::Rng256 rng(1);
  for (int k = 0; k < 200; ++k) {
    ASSERT_TRUE(cache.flip_random_bit(rng, 0.0));
  }
  const auto r = cache.read(0x20, 4, Access::read, 10);
  EXPECT_EQ(r.value, 0xDEADBEEFu);  // always corrected
  EXPECT_FALSE(r.silently_corrupt);
  // Either that word was clean (rare) or a recovery happened.
  if (r.soft_error_recovered) {
    EXPECT_GE(cache.stats().data_aborts_recovered, 1u);
    EXPECT_GT(r.cycles, 20u);  // abort recovery penalty included
  }
}

TEST(Cache, IFetchRecoveryIsInvalidateAndRefill) {
  CacheFixture f;
  f.seed(0x20, 0xDEADBEEF);
  Cache cache = f.make(/*ft=*/true);
  (void)cache.read(0x20, 4, Access::fetch, 0);
  support::Rng256 rng(3);
  for (int k = 0; k < 200; ++k) {
    ASSERT_TRUE(cache.flip_random_bit(rng, 0.0));
  }
  const auto r = cache.read(0x20, 4, Access::fetch, 10);
  EXPECT_EQ(r.value, 0xDEADBEEFu);
  if (r.soft_error_recovered) {
    EXPECT_GE(cache.stats().ifetch_refills, 1u);
    EXPECT_EQ(cache.stats().data_aborts_recovered, 0u);
  }
}

TEST(Cache, TagErrorBecomesMissUnderFt) {
  CacheFixture f;
  f.seed(0x20, 0xDEADBEEF);
  Cache cache = f.make(/*ft=*/true);
  (void)cache.read(0x20, 4, Access::read, 0);
  support::Rng256 rng(5);
  for (int k = 0; k < 50; ++k) {
    ASSERT_TRUE(cache.flip_random_bit(rng, 1.0));  // tag only
  }
  cache.reset_stats();
  const auto r = cache.read(0x20, 4, Access::read, 10);
  EXPECT_EQ(r.value, 0xDEADBEEFu);  // refetched from memory
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_GE(cache.stats().tag_errors_detected, 1u);
}

// ----- MPU ----------------------------------------------------------------------

TEST(Mpu, CoarseRejectsSmallRegions) {
  Mpu mpu(MpuConfig::coarse());
  MpuRegion r;
  r.base = 0x1000;
  r.size = 256;  // below 4 KB granule
  r.read = true;
  EXPECT_THROW(mpu.set_region(0, r), std::logic_error);
  r.size = 4096;
  EXPECT_NO_THROW(mpu.set_region(0, r));
  r.size = 12288;  // not a power of two
  r.base = 0;
  EXPECT_THROW(mpu.set_region(1, r), std::logic_error);
}

TEST(Mpu, CoarseRequiresNaturalAlignment) {
  Mpu mpu(MpuConfig::coarse());
  MpuRegion r;
  r.size = 8192;
  r.base = 4096;  // not aligned to 8 KB
  r.read = true;
  EXPECT_THROW(mpu.set_region(0, r), std::logic_error);
  r.base = 8192;
  EXPECT_NO_THROW(mpu.set_region(0, r));
}

TEST(Mpu, FineAllowsSmallAlignedRegions) {
  Mpu mpu(MpuConfig::fine());
  MpuRegion r;
  r.base = 0x1020;
  r.size = 96;  // 3 granules
  r.read = true;
  r.write = true;
  EXPECT_NO_THROW(mpu.set_region(0, r));
  r.base = 0x1010;  // not 32-byte aligned
  EXPECT_THROW(mpu.set_region(1, r), std::logic_error);
}

TEST(Mpu, SmallestRegionSpan) {
  Mpu coarse(MpuConfig::coarse());
  Mpu fine(MpuConfig::fine());
  EXPECT_EQ(coarse.smallest_region_span(100), 4096u);
  EXPECT_EQ(coarse.smallest_region_span(5000), 8192u);
  EXPECT_EQ(coarse.smallest_region_span(9000), 16384u);
  EXPECT_EQ(fine.smallest_region_span(100), 128u);
  EXPECT_EQ(fine.smallest_region_span(5000), 5024u);
  EXPECT_EQ(fine.smallest_region_span(32), 32u);
}

struct MpuPermCase {
  bool read, write, execute;
  Access kind;
  bool expect_allowed;
};

class MpuPermissions : public ::testing::TestWithParam<MpuPermCase> {};

TEST_P(MpuPermissions, Matrix) {
  const MpuPermCase& c = GetParam();
  MpuConfig config = MpuConfig::fine();
  config.privileged_background = false;
  Mpu mpu(config);
  MpuRegion r;
  r.base = 0x1000;
  r.size = 0x100;
  r.read = c.read;
  r.write = c.write;
  r.execute = c.execute;
  mpu.set_region(0, r);
  const Fault f = mpu.check(0x1010, 4, c.kind, /*privileged=*/false);
  EXPECT_EQ(f == Fault::none, c.expect_allowed);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, MpuPermissions,
    ::testing::Values(
        MpuPermCase{true, false, false, Access::read, true},
        MpuPermCase{true, false, false, Access::write, false},
        MpuPermCase{true, false, false, Access::fetch, false},
        MpuPermCase{false, true, false, Access::write, true},
        MpuPermCase{false, true, false, Access::read, false},
        MpuPermCase{false, false, true, Access::fetch, true},
        MpuPermCase{false, false, true, Access::read, false},
        MpuPermCase{true, true, false, Access::read, true},
        MpuPermCase{true, true, false, Access::write, true},
        MpuPermCase{true, true, false, Access::fetch, false},
        MpuPermCase{false, false, false, Access::read, false}));

TEST(Mpu, HigherRegionWins) {
  MpuConfig config = MpuConfig::fine();
  config.privileged_background = false;
  Mpu mpu(config);
  MpuRegion lo;
  lo.base = 0x1000;
  lo.size = 0x1000;
  lo.read = true;
  lo.write = true;
  mpu.set_region(0, lo);
  MpuRegion hi;
  hi.base = 0x1800;
  hi.size = 0x100;
  hi.read = true;  // read-only carve-out
  mpu.set_region(7, hi);
  EXPECT_EQ(mpu.check(0x1004, 4, Access::write, false), Fault::none);
  EXPECT_EQ(mpu.check(0x1804, 4, Access::write, false),
            Fault::mpu_violation);
  EXPECT_EQ(mpu.check(0x1804, 4, Access::read, false), Fault::none);
}

TEST(Mpu, PrivilegedBackground) {
  Mpu mpu(MpuConfig::fine());  // background on
  EXPECT_EQ(mpu.check(0x9000, 4, Access::read, /*privileged=*/true),
            Fault::none);
  EXPECT_EQ(mpu.check(0x9000, 4, Access::read, /*privileged=*/false),
            Fault::mpu_violation);
}

TEST(Mpu, ExplicitDenyBeatsBackground) {
  Mpu mpu(MpuConfig::fine());
  MpuRegion r;
  r.base = 0x2000;
  r.size = 0x100;
  r.read = true;  // no write
  mpu.set_region(0, r);
  // Privileged write inside the region: the region match denies it even
  // though the privileged background would allow unmapped addresses.
  EXPECT_EQ(mpu.check(0x2010, 4, Access::write, true), Fault::mpu_violation);
}

TEST(Mpu, PrivilegedOnlyRegions) {
  MpuConfig config = MpuConfig::fine();
  config.privileged_background = false;
  Mpu mpu(config);
  MpuRegion r;
  r.base = 0x3000;
  r.size = 0x100;
  r.read = true;
  r.privileged_only = true;
  mpu.set_region(0, r);
  EXPECT_EQ(mpu.check(0x3000, 4, Access::read, true), Fault::none);
  EXPECT_EQ(mpu.check(0x3000, 4, Access::read, false),
            Fault::mpu_violation);
}

TEST(Mpu, ViolationStats) {
  MpuConfig config = MpuConfig::fine();
  config.privileged_background = false;
  Mpu mpu(config);
  (void)mpu.check(0, 4, Access::read, false);
  (void)mpu.check(4, 4, Access::read, false);
  EXPECT_EQ(mpu.stats().checks, 2u);
  EXPECT_EQ(mpu.stats().violations, 2u);
}

// ----- Fault injector ------------------------------------------------------------

TEST(FaultInjector, DeterministicForSeed) {
  const auto run = [] {
    TcmConfig tc;
    tc.size_bytes = 1024;
    tc.fault_tolerant = true;
    Tcm tcm(tc);
    FaultInjectorConfig fc;
    fc.upsets_per_mcycle = 50.0;
    FaultInjector inj(fc, support::Rng256(99));
    inj.attach(tcm);
    (void)inj.advance_to(2'000'000);
    return inj.injected();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_NEAR(static_cast<double>(a), 100.0, 3.0);
}

TEST(FaultInjector, RateScalesWithTime) {
  TcmConfig tc;
  tc.size_bytes = 1024;
  Tcm tcm(tc);
  FaultInjectorConfig fc;
  fc.upsets_per_mcycle = 10.0;
  FaultInjector inj(fc, support::Rng256(7));
  inj.attach(tcm);
  (void)inj.advance_to(10'000'000);
  EXPECT_NEAR(static_cast<double>(inj.injected()), 100.0, 3.0);
}

}  // namespace
}  // namespace aces::mem
