package repro.trainer

import repro.selector.{DownsamplingConfig, TriggerTrainingSet}
import repro.storage.StorageService

/** Per-trigger training configuration (from the pipeline's `training`
  * section): epochs, batch size, whether to warm-start from the previous
  * model, and the OnlineDataset tuning.
  */
final case class TrainingRunConfig(epochs: Int, batchSize: Int,
                                   usePreviousModel: Boolean,
                                   dataset: OnlineDatasetConfig,
                                   seed: Long = 0L) {
  require(epochs > 0, "epochs must be positive")
  require(batchSize == dataset.batchSize, "batchSize must equal dataset.batchSize")
}

/** Statistics of one training run — what the supervisor records as the
  * run's metadata. `wallClockMs` is rounded to the nearest millisecond.
  */
final case class TrainingResult(triggerId: Int, samplesTrainedOn: Long, batches: Long,
                                meanLoss: Double, wallClockMs: Long,
                                downsampledTo: Option[Long])

/** The trainer server (§4.1.3): executes the general-purpose training loop
  * for one trigger. It fetches the trigger training set through the
  * [[OnlineDataset]], optionally applies the pipeline's downsampling
  * policy (in StB or BtS mode, §4.1.2), and updates the model with
  * per-sample-weighted SGD steps.
  */
final class TrainerServer(storage: StorageService, parser: BytesParser,
                          transform: Transform = IdentityTransform) {

  /** Run the training for one trigger. `model` is mutated in place (it was
    * either freshly initialized or restored from model storage by the
    * caller, per `use_previous_model`).
    */
  def runTraining(model: Model, tts: TriggerTrainingSet, cfg: TrainingRunConfig,
                  downsampling: Option[DownsamplingConfig] = None): TrainingResult = {
    val start = System.nanoTime()

    // StB: one sampling phase over the presampled set builds the
    // downsampled key/weight list; training then fetches from that list.
    val source: TrainingSetSource = downsampling match {
      case Some(ds) if ds.sampleThenBatch =>
        val policy  = DownsamplingDriver.policyByName(ds.name)
        val scan    = new OnlineDataset(new TssSource(tts), storage, parser, transform, cfg.dataset).batches()
        val pool    = scan.flatMap(b => (0 until b.size).iterator.map(i => (b.features(i), b.labels(i), b.keys(i))))
        val (keys, weights) =
          try DownsamplingDriver.sampleThenBatch(policy, model, ds.ratio, pool, cfg.seed)
          finally scan.close()
        new InMemorySource(keys, weights, partitionSizeOf(tts))
      case _ => new TssSource(tts)
    }

    val btsPolicy = downsampling.collect {
      case ds if !ds.sampleThenBatch => (DownsamplingDriver.policyByName(ds.name), ds.ratio)
    }

    // Epoch e + 1's loader opens once epoch e has yielded its first batch,
    // so that its workers fill their buffers while epoch e trains: at most
    // the current epoch's loader and the next one's are open.
    def open() = new OnlineDataset(source, storage, parser, transform, cfg.dataset).batches()
    var current: Iterator[TrainBatch] with AutoCloseable = null
    var next: Iterator[TrainBatch] with AutoCloseable    = null

    var batches  = 0L
    var samples  = 0L
    var lossSum  = 0.0
    try for (epoch <- 0 until cfg.epochs) {
      current = if (next != null) next else open()
      next = null
      current.foreach { batch =>
        if (next == null && epoch + 1 < cfg.epochs) next = open()
        val loss = btsPolicy match {
          case Some((policy, ratio)) =>
            val draws = DownsamplingDriver.batchThenSample(
              policy, model, ratio, batch.features, batch.labels,
              cfg.seed ^ (epoch.toLong << 32) ^ batches)
            val xs = draws.map(d => batch.features(d.index)).toArray
            val ys = draws.map(d => batch.labels(d.index)).toArray
            val ws = draws.map(d => d.weight * batch.weights(d.index)).toArray
            samples += xs.length
            model.trainBatch(xs, ys, ws)
          case None =>
            samples += batch.size
            model.trainBatch(batch.features, batch.labels, batch.weights)
        }
        lossSum += loss
        batches += 1
      }
      current.close()
      current = null
    } finally Seq(current, next).foreach(l => if (l != null) l.close())

    TrainingResult(
      triggerId = tts.triggerId,
      samplesTrainedOn = samples,
      batches = batches,
      meanLoss = if (batches == 0) 0.0 else lossSum / batches,
      wallClockMs = math.round((System.nanoTime() - start) / 1e6),
      downsampledTo = downsampling.collect { case ds if ds.sampleThenBatch => source.totalSamples })
  }

  /** Recover the TSS partition size so the StB in-memory set is cut into
    * partitions of the same granularity.
    */
  private def partitionSizeOf(tts: TriggerTrainingSet): Int =
    if (tts.numPartitions == 0) 1
    else math.max(1, tts.tss.partitionSize(tts.triggerId, 0).toInt)
}
