package repro.trainer

import repro.selector.TriggerTrainingSet
import repro.storage.{PayloadBatch, StorageService}
import repro.util.Parallel

/** Tuning knobs of the data path, matching the dimensions varied in §5.1:
  * dataloader workers, prefetched partitions per worker (the partition
  * buffer size; 0 disables prefetching), parallel prefetch requests per
  * worker, and retrieval threads at the storage.
  */
final case class OnlineDatasetConfig(numWorkers: Int, batchSize: Int,
                                     prefetchedPartitions: Int,
                                     parallelPrefetchRequests: Int,
                                     storageThreads: Int) {
  require(numWorkers > 0 && batchSize > 0, "numWorkers and batchSize must be positive")
  require(prefetchedPartitions >= 0, "prefetchedPartitions must be >= 0")
  require(parallelPrefetchRequests >= 1, "parallelPrefetchRequests must be >= 1")
  require(storageThreads >= 1, "storageThreads must be >= 1")
}

/** One training batch as yielded to the training loop. */
final case class TrainBatch(keys: Array[Long], features: Array[Array[Float]],
                            labels: Array[Int], weights: Array[Double]) {
  def size: Int = keys.length
}

/** Where a worker's keys+weights come from: the persisted TSS (normal
  * path) or an in-memory downsampled set (after an StB sampling phase).
  */
trait TrainingSetSource {
  def numPartitions: Int
  def totalSamples: Long
  /** Worker `workerId` of `numWorkers`'s equal share of `partition`. */
  def workerShare(partition: Int, workerId: Int, numWorkers: Int): (Array[Long], Array[Double])
}

/** TSS-backed source (§4.2.2): shares are contiguous record ranges read
  * from the partition's binary files.
  */
final class TssSource(tts: TriggerTrainingSet) extends TrainingSetSource {
  override def numPartitions: Int = tts.numPartitions
  override def totalSamples: Long = tts.totalSamples
  override def workerShare(partition: Int, workerId: Int, numWorkers: Int): (Array[Long], Array[Double]) =
    tts.tss.workerShare(tts.triggerId, partition, workerId, numWorkers)
}

/** In-memory source over an explicit key/weight list, cut into fixed-size
  * partitions like the TSS would be.
  */
final class InMemorySource(keys: Array[Long], weights: Array[Double],
                           partitionSize: Int) extends TrainingSetSource {
  require(keys.length == weights.length, "keys/weights arity mismatch")
  require(partitionSize > 0, "partitionSize must be positive")
  override def numPartitions: Int = (keys.length + partitionSize - 1) / partitionSize
  override def totalSamples: Long = keys.length.toLong
  override def workerShare(partition: Int, workerId: Int, numWorkers: Int): (Array[Long], Array[Double]) = {
    val pStart = partition * partitionSize
    val pEnd   = math.min(pStart + partitionSize, keys.length)
    val n      = pEnd - pStart
    val lo     = pStart + workerId * n / numWorkers
    val hi     = pStart + (workerId + 1) * n / numWorkers
    (keys.slice(lo, hi), weights.slice(lo, hi))
  }
}

/** The OnlineDataset (§4.2.1): loads keys from the selector's persisted
  * trigger training set, payloads from storage, parses bytes, and yields
  * batches to the training loop — which stays unaware of the machinery.
  *
  * Structure (Fig. 5): each of `numWorkers` workers owns an equal share of
  * every partition. A worker runs `parallelPrefetchRequests` prefetch
  * tasks that take one of `prefetchedPartitions` buffer slots, read the
  * worker's key share (TSS), and stream the payloads from storage (with
  * `storageThreads` retrieval tasks) into the slot *chunk by chunk*; the
  * worker's main thread consumes partitions in order but starts parsing
  * as soon as the first chunk arrives, so batch latency does not depend
  * on partition size. Partitions, and the storage parts within each, are
  * consumed in a fixed order, so a run repeats exactly: the batch
  * sequence depends on the worker and storage-thread counts, which cut
  * the partitions, and not on timing or the prefetch settings. The
  * worker tasks, their buffers and the round-robin batch assembly are
  * the shared [[Loader]]'s.
  */
final class OnlineDataset(source: TrainingSetSource, storage: StorageService,
                          parser: BytesParser, transform: Transform,
                          cfg: OnlineDatasetConfig) {
  import OnlineDataset.RawChunk

  /** Iterate the trigger training set once as training batches; worker
    * errors are rethrown here. `close()` stops the workers and their
    * prefetch tasks: close an iterator that is not read to its end.
    */
  def batches(): Iterator[TrainBatch] with AutoCloseable = Loader.batches(cfg.numWorkers)(worker)

  /** Worker `workerId`'s batches: its share of every partition, in
    * partition order, parsed one storage chunk at a time.
    */
  private def worker(workerId: Int): Iterator[TrainBatch] = {
    val nParts = source.numPartitions
    if (cfg.prefetchedPartitions == 0) {
      // No prefetching: blocking fetch of the whole partition share,
      // then parse — no fetch/compute overlap, like a dataloader
      // without the prefetch machinery.
      val chunks = Iterator.range(0, nParts).flatMap(p => fetchChunks(workerId, p).toIndexedSeq)
      Loader.cut(chunks.map(parse), cfg.batchSize)
    } else {
      // Prefetch tasks move raw bytes only; parsing stays on the worker's
      // main thread (§4.2.1). A partition's chunks stream into its buffer
      // slot as they arrive, so consumption starts before it is complete.
      val chunks = Parallel.ordered(s"prefetch-$workerId", nParts, cfg.parallelPrefetchRequests,
        cfg.prefetchedPartitions)(fetchChunks(workerId, _))
      Loader.cut(chunks.map(parse), cfg.batchSize, chunks)
    }
  }

  /** Fetch this worker's share of one partition as raw payload chunks:
    * keys from the source, payloads chunk-wise from storage.
    */
  private def fetchChunks(workerId: Int, partition: Int): Iterator[RawChunk] = {
    val (keys, weights) = source.workerShare(partition, workerId, cfg.numWorkers)
    storage.retrieve(keys, cfg.storageThreads).map(RawChunk(_, weights))
  }

  /** Apply the bytes parser + transformations to one raw chunk — always
    * on the worker's main thread. The parsed chunk keeps the storage order.
    */
  private def parse(raw: RawChunk): TrainBatch = {
    val c  = raw.chunk
    val xs = new Array[Array[Float]](c.size)
    val ys = new Array[Int](c.size)
    val ws = new Array[Double](c.size)
    var i = 0
    while (i < c.size) {
      xs(i) = transform(parser.parse(c.payloads(i)))
      ys(i) = c.labels(i).toInt
      ws(i) = raw.weights(c.positions(i))
      i += 1
    }
    TrainBatch(c.keys, xs, ys, ws)
  }
}

object OnlineDataset {
  /** A raw storage chunk plus the weights of the worker share it was
    * requested for, indexed by the chunk's key positions. Parsing happens
    * in the worker's *main* thread (§4.2.1), never in the prefetch threads.
    */
  private final case class RawChunk(chunk: PayloadBatch, weights: Array[Double])
}
