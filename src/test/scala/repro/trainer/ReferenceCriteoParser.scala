package repro.trainer

import java.nio.{ByteBuffer, ByteOrder}
import repro.datagen.CriteoLite

/** The Criteo parse as it was before the fast `log1p`: a `ByteBuffer` per
  * record and `math.log1p` (that is, `StrictMath.log1p`) per numeric
  * feature. Tests hold [[CriteoBytesParser]] to its output bit for bit.
  */
final class ReferenceCriteoParser(hashDim: Int) extends BytesParser {
  override val dim: Int = CriteoLite.NumNumeric + hashDim

  override def parse(payload: Array[Byte]): Array[Float] = {
    require(payload.length == CriteoLite.RecordSize)
    val bb = ByteBuffer.wrap(payload).order(ByteOrder.LITTLE_ENDIAN)
    val x  = new Array[Float](dim)
    var f = 0
    while (f < CriteoLite.NumNumeric) {
      x(f) = math.log1p(bb.getFloat(4 + f * 4).toDouble).toFloat
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
