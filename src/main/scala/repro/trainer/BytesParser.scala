package repro.trainer

import java.nio.{ByteBuffer, ByteOrder}
import repro.datagen.{ClocLite, CriteoLite}
import repro.util.FloatMath

/** The user-defined bytes-parsing function of a pipeline (§3.5): converts a
  * sample's raw payload bytes into the model's input feature vector. It is
  * always the first transformation applied by the OnlineDataset (§4.2.1).
  */
trait BytesParser {
  /** Feature dimensionality this parser produces. */
  def dim: Int

  /** Parse one payload into features. */
  def parse(payload: Array[Byte]): Array[Float]
}

/** Parses CriteoLite's 160-byte records "directly from a memoryview on the
  * sample data" (§5.1): 13 log-scaled numeric features plus the 26
  * categorical ids hashed into a shared `hashDim`-bucket one-hot space —
  * the linear-model equivalent of DLRM's embedding lookups.
  */
final class CriteoBytesParser(hashDim: Int = 128) extends BytesParser {
  require(hashDim > 0, "hashDim must be positive")
  override val dim: Int = CriteoLite.NumNumeric + hashDim

  override def parse(payload: Array[Byte]): Array[Float] = {
    require(payload.length == CriteoLite.RecordSize,
      s"expected ${CriteoLite.RecordSize}-byte record, got ${payload.length}")
    val bb = ByteBuffer.wrap(payload).order(ByteOrder.LITTLE_ENDIAN)
    val x  = new Array[Float](dim)
    var f = 0
    while (f < CriteoLite.NumNumeric) {
      x(f) = FloatMath.log1pFloat(bb.getFloat(4 + f * 4))
      f += 1
    }
    var c = 0
    while (c < CriteoLite.NumCategorical) {
      val id     = bb.getInt(4 + CriteoLite.NumNumeric * 4 + c * 4)
      val bucket = Math.floorMod(repro.util.Rng.mix2(c.toLong, id.toLong), hashDim).toInt
      x(CriteoLite.NumNumeric + bucket) += 1.0f
      c += 1
    }
    x
  }
}

/** Parses ClocLite's float-vector payloads (the "decode to RGB image" step
  * of the CLOC pipeline).
  */
final class ClocBytesParser(featureDim: Int = 64) extends BytesParser {
  override val dim: Int = featureDim

  override def parse(payload: Array[Byte]): Array[Float] = {
    require(payload.length == featureDim * 4,
      s"expected ${featureDim * 4}-byte payload, got ${payload.length}")
    ClocLite.parse(payload)
  }
}

/** A post-parse transformation (image augmentations, normalization, …). */
trait Transform {
  def apply(x: Array[Float]): Array[Float]
}

/** No-op transform. */
object IdentityTransform extends Transform {
  override def apply(x: Array[Float]): Array[Float] = x
}

/** Deterministic per-feature normalization (the `transforms.Normalize`
  * step of the example pipeline).
  */
final class NormalizeTransform(mean: Float, std: Float) extends Transform {
  require(std != 0, "std must be non-zero")
  override def apply(x: Array[Float]): Array[Float] = {
    val out = new Array[Float](x.length)
    var i = 0
    while (i < x.length) { out(i) = (x(i) - mean) / std; i += 1 }
    out
  }
}

/** Simulates the CPU cost of JPEG decode + RandomResizedCrop-style
  * augmentation that makes the CLOC workload compute-bound (§5.1.2): a
  * deterministic arithmetic loop of `costIterations` per sample, followed
  * by a deterministic feature jitter. The *result* is deterministic; only
  * CPU time is spent, which is the property the throughput experiments
  * depend on.
  */
final class SimulatedAugmentTransform(costIterations: Int, jitter: Float = 0.01f) extends Transform {
  require(costIterations >= 0, "costIterations must be non-negative")
  override def apply(x: Array[Float]): Array[Float] = {
    var acc = 1.0
    var i = 0
    while (i < costIterations) { acc = acc * 1.0000001 + 1e-9; i += 1 }
    val out = new Array[Float](x.length)
    var f = 0
    while (f < x.length) {
      out(f) = x(f) +
        jitter * (Math.floorMod(repro.util.Rng.mix2(f.toLong, x(f).toInt.toLong), 3L) - 1)
      f += 1
    }
    // Fold the burn loop into the output so JIT cannot elide it; the term
    // is ~1e-30, far below float precision of any real feature value.
    out(0) += (acc * 1e-30).toFloat
    out
  }
}
