package repro.trainer

import java.lang.Float.{floatToRawIntBits, intBitsToFloat}
import java.nio.{ByteBuffer, ByteOrder}
import org.scalatest.funsuite.AnyFunSuite
import repro.datagen.{ClocLite, CriteoLite}
import repro.util.{FloatMath, Rng}

class BytesParserSpec extends AnyFunSuite {
  private def strictLog1p(v: Float): Float = StrictMath.log1p(v.toDouble).toFloat

  private def assertSameBits(v: Float): Unit = {
    val got = FloatMath.log1pFloat(v)
    assert(floatToRawIntBits(got) == floatToRawIntBits(strictLog1p(v)),
      f"log1pFloat($v%s) [0x${floatToRawIntBits(v)}%08x] = $got%s, StrictMath: ${strictLog1p(v)}%s")
  }

  test("log1pFloat equals StrictMath.log1p on the edges, with StrictMath outside the fast range") {
    val minFast = FloatMath.MinFast.toFloat
    val maxFast = FloatMath.MaxFast.toFloat
    val outside = Seq(0f, -0f, Float.MinPositiveValue, -Float.MinPositiveValue,
      java.lang.Float.MIN_NORMAL, Math.nextDown(minFast), Math.nextUp(-minFast),
      Math.nextUp(maxFast), -1f, Math.nextDown(-1f), -2f, -Float.MaxValue, Float.MaxValue,
      Float.NaN, intBitsToFloat(0x7fc12345), intBitsToFloat(0xff800001),
      Float.PositiveInfinity, Float.NegativeInfinity)
    val inside = Seq(minFast, -minFast, maxFast, Math.nextDown(maxFast), Math.nextUp(-1f),
      Math.nextUp(minFast), Math.nextDown(-minFast), 1f, -0.5f)
    outside.foreach { v =>
      assert(FloatMath.log1pFast(v).isNaN, s"$v must take the StrictMath branch")
      assertSameBits(v)
    }
    inside.foreach(assertSameBits)
    assert(FloatMath.MinFast == math.pow(2, -29) && FloatMath.MaxFast == math.pow(2, 29))
  }

  test("log1pFloat equals StrictMath.log1p on 10^7 seeded random float bit patterns") {
    var negative, fast = 0
    var i = 0L
    while (i < 10000000L) {
      val v = intBitsToFloat(Rng.mix(0x10971L + i).toInt)
      assertSameBits(v)
      if (v < 0) negative += 1
      if (!FloatMath.log1pFast(v).isNaN) fast += 1
      i += 1
    }
    assert(negative > 4900000 && negative < 5100000, s"$negative negative patterns")
    assert(fast > 1000000, s"only $fast patterns took the fast path")
  }

  test("log1pFloat falls back to StrictMath where the rounding window straddles two floats") {
    // Found by repro.util.Log1pExhaustiveCheck.
    val fallbacks = Seq(0x3ddbfec3, 0x41078feb, 0x46ca6a75, 0x4b773259, 0xba800b50, 0xb53ffffd)
      .map(intBitsToFloat)
    fallbacks.foreach { v =>
      assert(FloatMath.log1pFast(v).isNaN, s"$v should take the StrictMath branch")
      assertSameBits(v)
    }
  }

  test("criteo parser: features are bit-identical to the ByteBuffer/StrictMath parse") {
    val p   = new CriteoBytesParser(128)
    val ref = new ReferenceCriteoParser(128)
    for (seed <- Seq(42L, 7L, 2024L); key <- 1L to 100000L) {
      val rec = CriteoLite.record(key, seed)
      val got = p.parse(rec).map(floatToRawIntBits)
      val want = ref.parse(rec).map(floatToRawIntBits)
      if (!java.util.Arrays.equals(got, want))
        fail(s"seed $seed key $key: ${p.parse(rec).toSeq} != ${ref.parse(rec).toSeq}")
    }
  }

  test("criteo parser: dim = 13 numerics + hashDim buckets") {
    assert(new CriteoBytesParser(128).dim == 141)
    assert(new CriteoBytesParser(32).dim == 45)
  }

  test("criteo parser: numerics are log-scaled, non-negative") {
    val p = new CriteoBytesParser(64)
    val x = p.parse(CriteoLite.record(5L, 42L))
    assert(x.length == 77)
    (0 until 13).foreach(i => assert(x(i) >= 0f))
  }

  test("criteo parser: categorical mass equals the field count") {
    val p = new CriteoBytesParser(64)
    val x = p.parse(CriteoLite.record(9L, 42L))
    val catMass = x.drop(13).sum
    assert(catMass == CriteoLite.NumCategorical.toFloat) // 26 one-hot increments
  }

  test("criteo parser: deterministic and rejects wrong record size") {
    val p = new CriteoBytesParser(64)
    val r = CriteoLite.record(2L, 1L)
    assert(p.parse(r).toSeq == p.parse(r).toSeq)
    intercept[IllegalArgumentException] { p.parse(new Array[Byte](100)) }
  }

  test("cloc parser: roundtrips the payload floats") {
    val p  = new ClocBytesParser(16)
    val pl = ClocLite.payload(2, 2008, 3, 16, 7L)
    assert(p.parse(pl).toSeq == ClocLite.parse(pl).toSeq)
    intercept[IllegalArgumentException] { p.parse(new Array[Byte](15)) }
  }

  test("cloc parser: keeps every float bit, NaN payloads and -0 included") {
    val bits = Array(0x7fc12345, 0x7f812345, 0xffc00001, 0x80000000, 0x00000001,
      0x7f800000, 0x3f800000, 0xbf7fffff)
    val bb = ByteBuffer.allocate(bits.length * 4).order(ByteOrder.LITTLE_ENDIAN)
    bits.foreach(bb.putInt)
    val x = new ClocBytesParser(bits.length).parse(bb.array())
    assert(x.map(floatToRawIntBits).toSeq == bits.toSeq)
  }

  test("identity transform returns its input") {
    val x = Array(1f, 2f)
    assert(IdentityTransform(x) eq x)
  }

  test("normalize transform shifts and scales") {
    val t = new NormalizeTransform(mean = 2f, std = 2f)
    assert(t(Array(2f, 4f, 0f)).toSeq == Seq(0f, 1f, -1f))
    intercept[IllegalArgumentException] { new NormalizeTransform(0f, 0f) }
  }

  test("simulated augment keeps values close and is deterministic") {
    val t = new SimulatedAugmentTransform(costIterations = 1000, jitter = 0.01f)
    val x = Array(1f, -2f, 3f, 0.5f)
    val a = t(x); val b = t(x)
    assert(a.toSeq == b.toSeq)
    a.zip(x).foreach { case (ai, xi) => assert(math.abs(ai - xi) <= 0.0101f) }
  }

  test("simulated augment cost scales with iterations") {
    val x = Array.fill(64)(1f)
    def time(iters: Int): Long = {
      val t = new SimulatedAugmentTransform(iters)
      (0 until 50).foreach(_ => t(x)) // warmup
      val s = System.nanoTime()
      (0 until 200).foreach(_ => t(x))
      System.nanoTime() - s
    }
    val slow = time(200000)
    val fast = time(100)
    assert(slow > fast * 3, s"slow=$slow fast=$fast")
  }

  test("model factory resolves parsers") {
    assert(ModelFactory.bytesParser("criteo", Map("hash_dim" -> 32.0)).dim == 45)
    assert(ModelFactory.bytesParser("cloc", Map("feature_dim" -> 8.0)).dim == 8)
    intercept[IllegalArgumentException] { ModelFactory.bytesParser("nope", Map.empty) }
  }
}
