package repro.selector

import java.nio.{ByteBuffer, ByteOrder}

/** The one file format of the TSS and of the local metadata backend, as in
  * the paper's C++ extensions (§4.1.2, §4.2.2): fixed-size records of
  * little-endian fields, encoded and decoded in bulk. The codec does no
  * I/O, so a caller that meets a new file system class recompiles only its
  * own call, not these loops.
  */
private[selector] object FixedRecords {

  /** Puts (or gets) the fields of record `row` at the buffer's position. */
  trait Fields { def apply(buf: ByteBuffer, row: Int): Unit }

  /** Records `0 until rows` of `recordBytes` each, record `r` put by `put(_, r)`. */
  def encode(rows: Int, recordBytes: Int)(put: Fields): Array[Byte] = {
    val bytes = new Array[Byte](rows * recordBytes)
    val buf   = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    var r = 0
    while (r < rows) { put(buf, r); r += 1 }
    bytes
  }

  /** Every record of `bytes`, record `r` got by `get(_, r)`; returns how many there were. */
  def decode(bytes: Array[Byte], recordBytes: Int)(get: Fields): Int = {
    val rows = bytes.length / recordBytes
    val buf  = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    var r = 0
    while (r < rows) { get(buf, r); r += 1 }
    rows
  }
}
