package repro.modelstorage

import java.nio.{ByteBuffer, ByteOrder}
import java.util.zip.{Deflater, Inflater}
import repro.storage.FileSystemWrapper

/** Model storage policies (§4.3), video-codec style:
  *
  *  - the '''full model strategy''' stores a model so it can be restored
  *    from the file alone (an I-frame); here: the flat weight vector,
  *    Deflater-compressed;
  *  - the '''incremental strategy''' stores only the delta against the
  *    previous stored model (a P-frame), activating for a configurable
  *    number of steps between full models. The difference operator is the
  *    paper's `WeightsDifference`; deltas of slowly-moving weights are
  *    near-zero-heavy and compress much better than full snapshots.
  */
final class ModelStorage(fs: FileSystemWrapper, dir: String, fullModelEverySteps: Int = 1) {
  require(fullModelEverySteps >= 1, "fullModelEverySteps must be >= 1")

  private def path(modelId: Int): String = f"$dir/model_$modelId%06d.bin"

  /** True iff `modelId` is stored as a full model (I-frame). */
  def isFullModel(modelId: Int): Boolean = modelId % fullModelEverySteps == 0

  // The bit patterns of the model this instance stored last, and its id:
  // the base of the next P-frame, so that a store never reads the chain.
  private var lastId   = -1
  private var lastBits = Array.emptyLongArray

  /** Store the weights of model `modelId` (ids must be stored in order,
    * starting at 0). Returns the stored byte size.
    *
    * The difference operator is XOR over the raw IEEE-754 bit patterns:
    * unlike an arithmetic difference it is *exactly* reversible (no
    * rounding on restore), and unchanged weights still become all-zero
    * words that the Deflater collapses. A P-frame is taken against the
    * weights this instance stored last; only when it did not store
    * `modelId - 1` is that base restored from the files.
    */
  def store(modelId: Int, weights: Array[Double]): Long = {
    val bits = weights.map(java.lang.Double.doubleToRawLongBits)
    val toStore: Array[Long] =
      if (isFullModel(modelId)) bits
      else {
        val prev =
          if (lastId == modelId - 1) lastBits
          else load(modelId - 1).map(java.lang.Double.doubleToRawLongBits)
        require(prev.length == bits.length,
          s"model $modelId: weight count changed (${prev.length} -> ${bits.length})")
        Array.tabulate(bits.length)(i => bits(i) ^ prev(i))
      }
    val bytes = compress(toStore)
    fs.write(path(modelId), bytes)
    lastId = modelId
    lastBits = bits
    bytes.length.toLong
  }

  /** Restore the weights of model `modelId`, chaining deltas back to the
    * latest preceding full model.
    */
  def load(modelId: Int): Array[Double] = {
    require(fs.exists(path(modelId)), s"model $modelId not stored")
    val own = decompress(fs.readAll(path(modelId)))
    if (isFullModel(modelId)) own.map(java.lang.Double.longBitsToDouble)
    else {
      val base = load(modelId - 1)
      Array.tabulate(own.length)(i =>
        java.lang.Double.longBitsToDouble(
          own(i) ^ java.lang.Double.doubleToRawLongBits(base(i))))
    }
  }

  /** Stored byte size of `modelId` (for compression-ratio reporting). */
  def storedSize(modelId: Int): Long = fs.size(path(modelId))

  private def compress(ws: Array[Long]): Array[Byte] = {
    val raw = new Array[Byte](ws.length * 8)
    val bb  = ByteBuffer.wrap(raw).order(ByteOrder.LITTLE_ENDIAN)
    ws.foreach(bb.putLong)
    val deflater = new Deflater(Deflater.BEST_SPEED)
    deflater.setInput(raw); deflater.finish()
    val out = new java.io.ByteArrayOutputStream(raw.length / 2 + 64)
    val buf = new Array[Byte](64 * 1024)
    while (!deflater.finished()) out.write(buf, 0, deflater.deflate(buf))
    deflater.end()
    val body   = out.toByteArray
    val header = ByteBuffer.allocate(4).order(ByteOrder.LITTLE_ENDIAN).putInt(ws.length).array()
    header ++ body
  }

  private def decompress(bytes: Array[Byte]): Array[Long] = {
    val n        = ByteBuffer.wrap(bytes, 0, 4).order(ByteOrder.LITTLE_ENDIAN).getInt
    val inflater = new Inflater()
    inflater.setInput(bytes, 4, bytes.length - 4)
    val raw = new Array[Byte](n * 8)
    var off = 0
    while (off < raw.length) {
      val k = inflater.inflate(raw, off, raw.length - off)
      require(k > 0 || !inflater.finished(), "corrupt model file")
      off += k
    }
    inflater.end()
    val bb = ByteBuffer.wrap(raw).order(ByteOrder.LITTLE_ENDIAN)
    Array.fill(n)(bb.getLong)
  }
}
