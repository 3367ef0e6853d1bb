// Round-trip suite for the checked stream-record serialization substrate
// (nn/serialize) and its consumers (Adam, Rng, Cmlp/NithoModel weights):
// every state object is serialized, restored into a differently-initialized
// peer, and asserted bit-equal — and every truncation/corruption of the
// stream must throw check_error rather than zero-fill state (the LBANN
// serialize-then-CHECK-equal test shape).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nitho/cmlp.hpp"
#include "nitho/model.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "support/test_support.hpp"

namespace nitho {
namespace {

using nn::Tensor;
using nn::Var;

// Bit-exact float comparison: NaN payloads and signed zeros must survive
// the round trip unchanged, which operator== cannot check.
bool bits_equal(float a, float b) {
  std::uint32_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

::testing::AssertionResult tensors_bit_equal(const Tensor& a,
                                             const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << a.shape_str() << " vs " << b.shape_str();
  }
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (!bits_equal(a[i], b[i])) {
      return ::testing::AssertionFailure() << "element " << i << ": " << a[i]
                                           << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

Tensor random_tensor(std::vector<int> shape, std::uint64_t salt) {
  Rng rng = test::make_rng(salt);
  Tensor t(std::move(shape));
  t.randn(rng, 1.0f);
  return t;
}

TEST(SerializeRecords, ScalarsRoundTrip) {
  std::stringstream ss;
  nn::write_u64(ss, 0);
  nn::write_u64(ss, std::numeric_limits<std::uint64_t>::max());
  nn::write_f32(ss, -0.0f);
  nn::write_f32(ss, std::numeric_limits<float>::quiet_NaN());
  nn::write_string(ss, "");
  nn::write_string(ss, std::string("nul\0byte", 8));
  EXPECT_EQ(nn::read_u64(ss), 0u);
  EXPECT_EQ(nn::read_u64(ss), std::numeric_limits<std::uint64_t>::max());
  const float neg_zero = nn::read_f32(ss);
  EXPECT_TRUE(bits_equal(neg_zero, -0.0f));
  EXPECT_TRUE(std::isnan(nn::read_f32(ss)));
  EXPECT_EQ(nn::read_string(ss), "");
  EXPECT_EQ(nn::read_string(ss), std::string("nul\0byte", 8));
}

TEST(SerializeRecords, VectorsRoundTrip) {
  std::stringstream ss;
  const std::vector<float> f{1.5f, -2.25f, 0.0f};
  const std::vector<double> d{1e-300, -3.7, 0.0};
  nn::write_floats(ss, f);
  nn::write_floats(ss, {});
  nn::write_doubles(ss, d);
  nn::write_doubles(ss, {});
  EXPECT_EQ(nn::read_floats(ss), f);
  EXPECT_EQ(nn::read_floats(ss), std::vector<float>{});
  EXPECT_EQ(nn::read_doubles(ss), d);
  EXPECT_EQ(nn::read_doubles(ss), std::vector<double>{});
}

TEST(SerializeRecords, TensorsRoundTripAcrossShapes) {
  // Prime dims, a Bluestein-favorite odd size, a zero-size shape and a
  // rank-0 tensor: the shape vector itself must survive, not just the
  // payload.
  const std::vector<std::vector<int>> shapes{
      {7, 11}, {33, 33}, {3, 0, 5}, {}, {1}, {2, 3, 4, 2}};
  std::stringstream ss;
  std::vector<Tensor> originals;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    originals.push_back(random_tensor(shapes[i], i + 1));
    nn::write_tensor(ss, originals.back());
  }
  for (const Tensor& t : originals) {
    EXPECT_TRUE(tensors_bit_equal(nn::read_tensor(ss), t));
  }
}

TEST(SerializeRecords, NanAndInfPayloadsSurviveBitExactly) {
  Tensor t({2, 3});
  t[0] = std::numeric_limits<float>::quiet_NaN();
  t[1] = std::numeric_limits<float>::infinity();
  t[2] = -std::numeric_limits<float>::infinity();
  t[3] = -0.0f;
  t[4] = std::numeric_limits<float>::denorm_min();
  t[5] = 1.0f;
  std::stringstream ss;
  nn::write_tensor(ss, t);
  EXPECT_TRUE(tensors_bit_equal(nn::read_tensor(ss), t));
}

TEST(SerializeRecords, TruncatedStreamsThrowNotZeroFill) {
  std::stringstream full;
  nn::write_tensor(full, random_tensor({4, 5}, 3));
  const std::string bytes = full.str();
  // Every strict prefix must throw: header-only, shape-only, half payload.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{20},
        bytes.size() - 1}) {
    std::stringstream cut_ss(bytes.substr(0, cut));
    EXPECT_THROW(nn::read_tensor(cut_ss), check_error) << "cut at " << cut;
  }
  // Same for primitive records.
  std::stringstream u64s;
  nn::write_u64(u64s, 42);
  std::stringstream cut_u64(u64s.str().substr(0, u64s.str().size() - 1));
  EXPECT_THROW(nn::read_u64(cut_u64), check_error);
}

TEST(SerializeRecords, CorruptMagicAndKindThrow) {
  std::stringstream ss;
  nn::write_f32(ss, 1.0f);
  std::string bytes = ss.str();
  {
    std::string bad = bytes;
    bad[0] ^= 0x5A;  // flip magic bits
    std::stringstream bad_ss(bad);
    EXPECT_THROW(nn::read_f32(bad_ss), check_error);
  }
  {
    // Intact stream read as the wrong record kind.
    std::stringstream kind_ss(bytes);
    EXPECT_THROW(nn::read_u64(kind_ss), check_error);
  }
}

TEST(SerializeRecords, HostileSizesThrowBeforeAllocating) {
  // A tensor record claiming rank 200.
  std::stringstream rank_ss;
  const std::uint32_t magic = 0x4E535452u, kind = 1, rank = 200;
  rank_ss.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  rank_ss.write(reinterpret_cast<const char*>(&kind), sizeof kind);
  rank_ss.write(reinterpret_cast<const char*>(&rank), sizeof rank);
  EXPECT_THROW(nn::read_tensor(rank_ss), check_error);
  // Dims whose product overflows int64 must throw in the guard, not wrap.
  std::stringstream dim_ss;
  const std::uint32_t rank2 = 4;
  dim_ss.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  dim_ss.write(reinterpret_cast<const char*>(&kind), sizeof kind);
  dim_ss.write(reinterpret_cast<const char*>(&rank2), sizeof rank2);
  const std::int64_t huge = std::numeric_limits<int>::max();
  for (int i = 0; i < 4; ++i) {
    dim_ss.write(reinterpret_cast<const char*>(&huge), sizeof huge);
  }
  EXPECT_THROW(nn::read_tensor(dim_ss), check_error);
  // A float-vector record claiming 2^62 elements.
  std::stringstream count_ss;
  const std::uint32_t fkind = 2;
  const std::int64_t absurd = std::int64_t{1} << 62;
  count_ss.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  count_ss.write(reinterpret_cast<const char*>(&fkind), sizeof fkind);
  count_ss.write(reinterpret_cast<const char*>(&absurd), sizeof absurd);
  EXPECT_THROW(nn::read_floats(count_ss), check_error);
}

TEST(SerializeParameters, CmlpWeightsRoundTripIntoDifferentInit) {
  CmlpConfig cfg;
  cfg.in_features = 6;
  cfg.hidden = 5;
  cfg.blocks = 2;
  cfg.out = 3;
  cfg.seed = 1;
  const Cmlp stateful(cfg);
  cfg.seed = 999;  // deliberately different init, as in LBANN's
  const Cmlp fresh(cfg);  // Stateful-vs-Default builder comparison

  std::stringstream ss;
  nn::write_parameters(ss, stateful.parameters());
  nn::read_parameters(ss, fresh.parameters());
  const auto pa = stateful.parameters();
  const auto pb = fresh.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(tensors_bit_equal(pa[i]->value, pb[i]->value)) << "param " << i;
  }
}

TEST(SerializeParameters, NithoModelWeightsRoundTrip) {
  NithoConfig cfg;
  cfg.rank = 4;
  cfg.encoding.features = 16;
  cfg.hidden = 8;
  cfg.blocks = 1;
  cfg.kernel_dim = 9;
  NithoModel a(cfg, 512, 193.0, 1.35);
  cfg.seed = 31337;
  NithoModel b(cfg, 512, 193.0, 1.35);

  std::stringstream ss;
  nn::write_parameters(ss, a.parameters());
  nn::read_parameters(ss, b.parameters());
  const auto ka = a.export_kernels();
  const auto kb = b.export_kernels();
  ASSERT_EQ(ka.size(), kb.size());
  for (std::size_t i = 0; i < ka.size(); ++i) EXPECT_EQ(ka[i], kb[i]);
}

TEST(SerializeParameters, WrongCountAndWrongShapeThrow) {
  const Var p1 = nn::make_leaf(random_tensor({3, 4}, 1), true);
  const Var p2 = nn::make_leaf(random_tensor({5}, 2), true);
  std::stringstream ss;
  nn::write_parameters(ss, std::vector<Var>{p1, p2});
  const std::string bytes = ss.str();

  // Restoring into fewer parameters than stored.
  std::stringstream fewer(bytes);
  EXPECT_THROW(nn::read_parameters(fewer, std::vector<Var>{p1}), check_error);
  // Restoring into a parameter of a different shape — same element count,
  // so a flat loader would silently accept it.
  const Var wrong = nn::make_leaf(Tensor({4, 3}), true);
  std::stringstream reshaped(bytes);
  EXPECT_THROW(nn::read_parameters(reshaped, std::vector<Var>{wrong, p2}),
               check_error);
  // A failed restore must not have clobbered the target.
  EXPECT_TRUE(tensors_bit_equal(wrong->value, Tensor({4, 3})));
}

// Builds a tiny optimization problem and runs `steps` Adam updates so the
// moments and step count are non-trivial.
struct AdamFixture {
  explicit AdamFixture(std::uint64_t seed, float lr = 1e-2f)
      : w(nn::make_leaf(random_tensor({3, 2, 2}, seed), true)),
        b(nn::make_leaf(random_tensor({2}, seed + 1), true)),
        opt({w, b}, lr) {}

  void run(int steps) {
    for (int i = 0; i < steps; ++i) {
      opt.zero_grad();
      nn::Var loss = nn::add(nn::sum(nn::square(w)), nn::sum(nn::square(b)));
      nn::backward(loss);
      opt.step();
    }
  }

  Var w, b;
  nn::Adam opt;
};

TEST(SerializeAdam, StateRoundTripsAndResumesIdentically) {
  AdamFixture a(7);
  a.run(5);
  std::stringstream state;
  a.opt.save_state(state);
  nn::write_parameters(state, std::vector<Var>{a.w, a.b});

  // Restore into an optimizer with different history and hyperparameters.
  AdamFixture b(1234, 5e-4f);
  b.run(2);
  b.opt.load_state(state);
  nn::read_parameters(state, std::vector<Var>{b.w, b.b});
  EXPECT_EQ(b.opt.step_count(), a.opt.step_count());
  EXPECT_EQ(b.opt.lr(), a.opt.lr());
  const std::vector<float> ma = a.opt.dump_state();
  const std::vector<float> mb = b.opt.dump_state();
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_TRUE(bits_equal(ma[i], mb[i])) << "moment " << i;
  }
  // Resumed trajectories stay bit-identical.
  a.run(3);
  b.run(3);
  EXPECT_TRUE(tensors_bit_equal(a.w->value, b.w->value));
  EXPECT_TRUE(tensors_bit_equal(a.b->value, b.b->value));
}

TEST(SerializeAdam, MismatchedStateThrowsWithoutPartialRestore) {
  AdamFixture a(7);
  a.run(3);
  std::stringstream state;
  a.opt.save_state(state);

  // An optimizer bound to differently-shaped parameters must reject the
  // stream and keep its own moments untouched.
  const Var other = nn::make_leaf(random_tensor({4, 4}, 9), true);
  const Var other2 = nn::make_leaf(random_tensor({2}, 10), true);
  nn::Adam wrong({other, other2}, 1e-2f);
  const std::vector<float> before = wrong.dump_state();
  EXPECT_THROW(wrong.load_state(state), check_error);
  EXPECT_EQ(wrong.dump_state(), before);
  EXPECT_EQ(wrong.step_count(), 0);

  // Wrong parameter count.
  std::stringstream state2;
  a.opt.save_state(state2);
  nn::Adam fewer({other}, 1e-2f);
  EXPECT_THROW(fewer.load_state(state2), check_error);

  // Truncated mid-moments.
  std::stringstream full;
  a.opt.save_state(full);
  const std::string bytes = full.str();
  std::stringstream cut(bytes.substr(0, bytes.size() / 2));
  AdamFixture c(7);
  EXPECT_THROW(c.opt.load_state(cut), check_error);
}

// A restored Adam state must be finite, with nonnegative second moments and
// a finite positive learning rate.  Each poisoned stream (NaN, +Inf and -Inf
// in a first moment, a second moment and the rate; a negative second
// moment; a zero rate) throws and leaves the optimizer as it was.
TEST(SerializeAdam, RejectsNonFiniteStateWithoutPartialRestore) {
  AdamFixture a(7);
  a.run(3);
  const std::vector<float> moments = a.opt.dump_state();
  const std::int64_t half = static_cast<std::int64_t>(moments.size()) / 2;
  // The stream of a.opt with first moment i0, second moment i1 (flat
  // dump_state indices) and the rate overridden.
  const auto stream = [&](std::int64_t i0, float m0, std::int64_t i1, float v1,
                          float lr) {
    std::vector<float> flat = moments;
    if (i0 >= 0) flat[static_cast<std::size_t>(i0)] = m0;
    if (i1 >= 0) flat[static_cast<std::size_t>(half + i1)] = v1;
    std::stringstream ss;
    nn::write_u64(ss, 2);
    std::int64_t off = 0;
    for (const Var& p : {a.w, a.b}) {
      Tensor m(p->value.shape()), v(p->value.shape());
      for (std::int64_t i = 0; i < m.numel(); ++i) {
        m[i] = flat[static_cast<std::size_t>(off + i)];
        v[i] = flat[static_cast<std::size_t>(half + off + i)];
      }
      off += m.numel();
      nn::write_tensor(ss, m);
      nn::write_tensor(ss, v);
    }
    nn::write_u64(ss, 3);
    nn::write_f32(ss, lr);
    return ss.str();
  };
  // The unpoisoned stream loads (the poisoned ones fail on the poison).
  {
    AdamFixture ok(99);
    std::stringstream ss(stream(-1, 0.0f, -1, 0.0f, 1e-2f));
    ok.opt.load_state(ss);
    EXPECT_EQ(ok.opt.dump_state(), moments);
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::string> bad;
  for (const float x : {nan, inf, -inf}) {
    bad.push_back(stream(half - 1, x, -1, 0.0f, 1e-2f));  // first moment
    bad.push_back(stream(-1, 0.0f, 2, x, 1e-2f));         // second moment
    bad.push_back(stream(-1, 0.0f, -1, 0.0f, x));         // learning rate
  }
  bad.push_back(stream(-1, 0.0f, 0, -1e-6f, 1e-2f));
  bad.push_back(stream(-1, 0.0f, -1, 0.0f, 0.0f));
  for (std::size_t c = 0; c < bad.size(); ++c) {
    AdamFixture b(1234, 5e-4f);
    b.run(2);
    const std::vector<float> before = b.opt.dump_state();
    std::stringstream ss(bad[c]);
    EXPECT_THROW(b.opt.load_state(ss), check_error) << "case " << c;
    EXPECT_EQ(b.opt.dump_state(), before) << "case " << c;
    EXPECT_EQ(b.opt.step_count(), 2) << "case " << c;
    EXPECT_EQ(b.opt.lr(), 5e-4f) << "case " << c;
  }
  // The flat loader checks the moments the same way.
  for (const float x : {nan, inf, -inf}) {
    for (const std::int64_t i : {std::int64_t{0}, half}) {
      AdamFixture b(1234);
      b.run(2);
      const std::vector<float> before = b.opt.dump_state();
      std::vector<float> flat = moments;
      flat[static_cast<std::size_t>(i)] = x;
      EXPECT_THROW(b.opt.load_state(flat), check_error);
      EXPECT_EQ(b.opt.dump_state(), before);
    }
  }
}

TEST(SerializeRng, StateRoundTripContinuesTheExactStream) {
  Rng a = test::make_rng(5);
  for (int i = 0; i < 100; ++i) a.uniform();
  const std::string state = a.state();
  Rng b = test::make_rng(999);  // different seed, fully overwritten
  b.set_state(state);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.engine()(), b.engine()()) << "draw " << i;
  }
}

TEST(SerializeRng, MalformedStateThrows) {
  Rng r = test::make_rng(1);
  EXPECT_THROW(r.set_state(""), check_error);
  EXPECT_THROW(r.set_state("not a generator state"), check_error);
  // A truncated state string (the standard format is 624+ numbers).
  const std::string good = r.state();
  EXPECT_THROW(r.set_state(good.substr(0, good.size() / 2)), check_error);
}

TEST(SerializeFlat, FlatBlobStaysWireCompatible) {
  // The historical flat format must keep working alongside the records.
  const Var p = nn::make_leaf(random_tensor({2, 3}, 8), true);
  const std::vector<float> blob = nn::dump_parameters(std::vector<Var>{p});
  ASSERT_EQ(blob.size(), 6u);
  const Var q = nn::make_leaf(Tensor({2, 3}), true);
  nn::load_parameters(std::vector<Var>{q}, blob);
  EXPECT_TRUE(tensors_bit_equal(p->value, q->value));
  EXPECT_THROW(nn::load_parameters(std::vector<Var>{q},
                                   std::vector<float>(5, 0.0f)),
               check_error);
}

}  // namespace
}  // namespace nitho
